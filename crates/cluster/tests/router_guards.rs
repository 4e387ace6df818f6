//! The input guards and the resume failure arm the router has because it
//! drives the server's session core (`fmml_serve::session`): a reconnect
//! that dies mid-handshake parks the session again, a connection that
//! never says `Hello` is dropped at the opening's deadline, a sender
//! stalled mid-frame is cut off — before and after the handshake — and
//! a frame that does not decode or does not belong is refused as a
//! server refuses it.
//!
//! None of this needs a backend: a session opened on an empty ring is
//! tracked, welcomed and resumable, just never placed.

use fmml_cluster::{RouterConfig, RouterHandle};
use fmml_obs::{Clock, VirtualClock};
use fmml_serve::protocol::{write_frame, Frame, FrameReader};
use fmml_serve::session::{HELLO_DEADLINE, MAX_STALLS};
use fmml_serve::{Conn, Connector, SimConn, SimConnector, SimNet, TcpConnector, WireError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const PARKED_TTL: Duration = Duration::from_secs(60);
const PROBE_INTERVAL: Duration = Duration::from_millis(200);

fn hello(resume_token: Option<String>) -> Frame {
    Frame::Hello {
        tenant: "guards".into(),
        ports: vec![1],
        queues: 2,
        interval_len: 10,
        window_intervals: 3,
        resume_token,
        last_acked: None,
        codecs: None,
    }
}

/// `StatsReply.active_sessions` — this router's share of the
/// `cluster.sessions.active` gauge (every move of one moves the other).
fn active<CF: Conn, B: Connector + Send + Sync + 'static>(rt: &RouterHandle<CF, B>) -> u64 {
    match rt.stats() {
        Frame::StatsReply {
            active_sessions, ..
        } => active_sessions,
        other => panic!("stats() must be a StatsReply, got {other:?}"),
    }
}

/// Real-time bounded wait on a condition router threads drive; `tick`
/// runs between polls (advance a virtual clock, or nothing).
fn wait_for(what: &str, mut tick: impl FnMut(), mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        tick();
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn sim_router() -> (
    RouterHandle<SimConn, SimConnector>,
    SimNet,
    std::sync::Arc<VirtualClock>,
) {
    let (clock, vc) = Clock::new_virtual();
    let net = SimNet::new(7, clock.clone());
    let rt = fmml_cluster::spawn_with(
        net.transport(),
        RouterConfig {
            probe_interval: PROBE_INTERVAL,
            read_timeout: Duration::from_millis(2),
            parked_ttl: PARKED_TTL,
            clock,
            ..RouterConfig::default()
        },
    );
    (rt, net, vc)
}

fn sim_connect(net: &SimNet) -> (SimConn, FrameReader<SimConn>) {
    let conn = net.connector().connect().expect("sim connect");
    conn.set_read_timeout(Some(Duration::from_micros(100)))
        .unwrap();
    let rx = FrameReader::new(conn.try_clone().expect("clone sim conn"));
    (conn, rx)
}

fn await_frame(rx: &mut FrameReader<SimConn>) -> Frame {
    let mut got = None;
    wait_for(
        "a frame from the router",
        || {},
        || {
            got = rx.poll_frame().expect("connection died waiting for frame");
            got.is_some()
        },
    );
    got.unwrap()
}

/// A reconnect that presents a valid token and then dies before its
/// `Welcome` lands must leave the session parked — resumable by the next
/// retry, and expirable by the TTL sweep. (It used to be left un-parked
/// *and* client-less: tracked, counted active, and unreachable by the
/// sweep until router shutdown.)
#[test]
fn failed_resume_parks_again_and_expires() {
    let (rt, net, vc) = sim_router();
    let before = active(&rt);

    let (mut tx, mut rx) = sim_connect(&net);
    write_frame(&mut tx, &hello(None)).unwrap();
    let token = match await_frame(&mut rx) {
        Frame::Welcome {
            resume_token: Some(t),
            ..
        } => t,
        other => panic!("expected Welcome, got {other:?}"),
    };
    assert_eq!(active(&rt), before + 1);
    tx.shutdown_both();
    wait_for(
        "the vanished client to be parked",
        || {},
        || active(&rt) == before,
    );

    // The retry: its Hello is readable, its connection already dead, so
    // the router's Welcome write fails.
    let (mut tx2, _rx2) = sim_connect(&net);
    write_frame(&mut tx2, &hello(Some(token))).unwrap();
    tx2.shutdown_both();
    wait_for("the resume attempt", || {}, || rt.cluster_stats().1 == 1);
    wait_for(
        "the failed resume to park again",
        || {},
        || active(&rt) == before,
    );
    assert_eq!(rt.session_count(), 1, "still resumable until the TTL");

    vc.advance(PARKED_TTL);
    wait_for(
        "the TTL sweep to expire the session",
        || vc.advance(PROBE_INTERVAL),
        || rt.session_count() == 0,
    );
    assert_eq!(active(&rt), before);
    rt.shutdown();
    net.close();
}

/// A resume can attach before the loop of the connection it replaces
/// has seen that connection end. The replaced connection's late end must
/// neither park the session nor hang up on the resumed connection. (It
/// did: the stale loop parked whatever connection was attached, so a
/// resume that won this race was cut off right after its `Welcome`.)
/// Resuming while the first connection is still open forces the order:
/// the router closes the old connection only once the new one is in.
#[test]
fn a_replaced_connection_ending_late_leaves_the_resume_attached() {
    let (rt, net, _vc) = sim_router();
    let before = active(&rt);
    let (mut tx, mut rx) = sim_connect(&net);
    write_frame(&mut tx, &hello(None)).unwrap();
    let token = match await_frame(&mut rx) {
        Frame::Welcome {
            resume_token: Some(t),
            ..
        } => t,
        other => panic!("expected Welcome, got {other:?}"),
    };

    let (mut tx2, mut rx2) = sim_connect(&net);
    write_frame(&mut tx2, &hello(Some(token))).unwrap();
    assert!(matches!(
        await_frame(&mut rx2),
        Frame::Welcome {
            resumed: Some(true),
            ..
        }
    ));
    let mut end = None;
    wait_for(
        "the router to close the replaced connection",
        || {},
        || {
            end = rx.poll_frame().err();
            end.is_some()
        },
    );
    // Give the replaced connection's loop time to act on its end.
    std::thread::sleep(Duration::from_millis(100));
    write_frame(&mut tx2, &Frame::Stats).unwrap();
    assert!(matches!(await_frame(&mut rx2), Frame::StatsReply { .. }));
    assert_eq!(active(&rt), before + 1, "the resumed session is attached");
    rt.shutdown();
    net.close();
}

/// After the `Hello`, a frame that frames but does not decode is refused
/// the way a server refuses it — `Error{bad_frame}`, then a hang-up —
/// and the session parks, so the client may still resume it. (The
/// router used to park without a word.)
#[test]
fn garbage_after_hello_is_refused_bad_frame_and_parks() {
    let (rt, net, _vc) = sim_router();
    let before = active(&rt);
    let (mut tx, mut rx) = sim_connect(&net);
    write_frame(&mut tx, &hello(None)).unwrap();
    assert!(matches!(await_frame(&mut rx), Frame::Welcome { .. }));

    tx.write_all(&[0, 0, 0, 3, b'z', b'z', b'z']).unwrap();
    match await_frame(&mut rx) {
        Frame::Error { code, .. } => assert_eq!(code, "bad_frame"),
        other => panic!("expected Error, got {other:?}"),
    }
    let mut end = None;
    wait_for(
        "the router to hang up",
        || {},
        || {
            end = rx.poll_frame().err();
            end.is_some()
        },
    );
    assert_eq!(end, Some(WireError::Closed));
    wait_for("the session to park", || {}, || active(&rt) == before);
    assert_eq!(rt.session_count(), 1, "parked, still resumable");
    rt.shutdown();
    net.close();
}

/// A mid-session frame that is neither `Interval`, `Bye` nor a probe is
/// refused `Error{unexpected}` and counted malformed, and the session
/// goes on. (The router used to count it without a reply.)
#[test]
fn unexpected_frame_after_hello_is_refused_and_the_session_goes_on() {
    let (rt, net, _vc) = sim_router();
    let before = active(&rt);
    let (mut tx, mut rx) = sim_connect(&net);
    write_frame(&mut tx, &hello(None)).unwrap();
    assert!(matches!(await_frame(&mut rx), Frame::Welcome { .. }));

    write_frame(&mut tx, &hello(None)).unwrap();
    match await_frame(&mut rx) {
        Frame::Error { code, message } => {
            assert_eq!(code, "unexpected");
            assert_eq!(message, "unexpected Hello frame");
        }
        other => panic!("expected Error, got {other:?}"),
    }
    write_frame(&mut tx, &Frame::Stats).unwrap();
    match await_frame(&mut rx) {
        Frame::StatsReply { malformed, .. } => assert_eq!(malformed, 1),
        other => panic!("expected StatsReply, got {other:?}"),
    }
    assert_eq!(active(&rt), before + 1, "the session is still attached");
    rt.shutdown();
    net.close();
}

/// A connection that never sends `Hello` is closed after the opening's
/// deadline on the injected clock; probes before that are still served.
#[test]
fn silent_connection_is_dropped_at_the_hello_deadline() {
    let (rt, net, vc) = sim_router();
    let before = active(&rt);

    let (mut tx, mut rx) = sim_connect(&net);
    write_frame(&mut tx, &Frame::Stats).unwrap();
    assert!(matches!(await_frame(&mut rx), Frame::StatsReply { .. }));

    vc.advance(HELLO_DEADLINE + Duration::from_secs(1));
    let mut end = None;
    wait_for(
        "the router to close the silent connection",
        || {},
        || {
            end = rx.poll_frame().err();
            end.is_some()
        },
    );
    assert_eq!(end, Some(WireError::Closed));
    assert_eq!(active(&rt), before);
    assert_eq!(rt.session_count(), 0);
    rt.shutdown();
    net.close();
}

/// A pre-handshake JSON frame nested 100,000 deep costs the sender its
/// connection, not the router its process: `read_hello` decodes it with
/// the parser's depth cap, where it used to overflow the thread's stack.
#[test]
fn deeply_nested_json_before_hello_is_refused_not_fatal() {
    let rt: RouterHandle<TcpStream, TcpConnector> =
        fmml_cluster::spawn(RouterConfig::default()).expect("spawn router");
    let mut tx = TcpStream::connect(rt.addr()).unwrap();
    let deep = "[".repeat(100_000);
    tx.write_all(&(deep.len() as u32).to_be_bytes()).unwrap();
    tx.write_all(deep.as_bytes()).unwrap();
    assert_closed_by_router(tx, "deep nesting");

    let mut tx = TcpStream::connect(rt.addr()).unwrap();
    let mut rx = FrameReader::new(tx.try_clone().unwrap());
    write_frame(&mut tx, &Frame::Stats).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::StatsReply { .. }));
    rt.shutdown();
}

/// Block until the router closes `stream` (EOF or reset); panics if it
/// is still open after well over the stall budget.
fn assert_closed_by_router(mut stream: TcpStream, what: &str) {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut byte = [0u8; 1];
    match stream.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("{what}: router kept a stalled connection open ({other:?})"),
    }
}

/// A sender that stalls mid-frame is disconnected after `MAX_STALLS`
/// read timeouts — in the opening and in the session loop alike.
#[test]
fn stalled_sender_is_cut_off_before_and_after_the_handshake() {
    let read_timeout = Duration::from_millis(2);
    let rt: RouterHandle<TcpStream, TcpConnector> = fmml_cluster::spawn(RouterConfig {
        read_timeout,
        ..RouterConfig::default()
    })
    .expect("spawn router");
    let before = active(&rt);
    let half_a_header = [0u8, 0];

    // Before the handshake.
    let t0 = Instant::now();
    let mut pre = TcpStream::connect(rt.addr()).unwrap();
    pre.write_all(&half_a_header).unwrap();
    assert_closed_by_router(pre, "pre-handshake");
    assert!(
        t0.elapsed() >= read_timeout * MAX_STALLS,
        "cut off before the stall budget was spent"
    );

    // In session.
    let mut tx = TcpStream::connect(rt.addr()).unwrap();
    let mut rx = FrameReader::new(tx.try_clone().unwrap());
    write_frame(&mut tx, &hello(None)).unwrap();
    assert!(matches!(rx.read_frame().unwrap(), Frame::Welcome { .. }));
    assert_eq!(active(&rt), before + 1);
    tx.write_all(&half_a_header).unwrap();
    assert_closed_by_router(tx, "in session");
    // Parked, not leaked: the client may still resume.
    wait_for(
        "the stalled session to be parked",
        || {},
        || active(&rt) == before,
    );
    assert_eq!(rt.session_count(), 1);
    rt.shutdown();
}
