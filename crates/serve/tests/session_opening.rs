//! The server half of `fmml_serve::session` with no socket under it: the
//! `Hello` opening and the read step after it. The reader is a byte slice
//! (or a script of chunks that then goes quiet), the clock a counter, the
//! peer a `Vec` of the bytes written to it.

use fmml_core::streaming::IntervalUpdate;
use fmml_obs::{Counter, Gauge};
use fmml_serve::protocol::{decode_frame, encode_frame, encode_frame_with, Frame, FrameReader};
use fmml_serve::session::{
    Counters, End, FrontEnd, Hello, Identity, Ledger, Metrics, Step, MAX_STALLS,
};
use fmml_serve::WireCodec;
use std::collections::VecDeque;
use std::io::Read;
use std::time::{Duration, Instant};

static METRICS: Metrics = Metrics {
    sessions: Counter::new("test.sessions"),
    active: Gauge::new("test.sessions.active"),
    accepted: Counter::new("test.accepted"),
    rejected: Counter::new("test.rejected"),
    malformed: Counter::new("test.malformed"),
    replies: Counter::new("test.replies"),
    writes: Counter::new("test.writes"),
    batches: Counter::new("test.batches"),
    deadline_misses: Counter::new("test.deadline_miss"),
    violations: Counter::new("test.violations"),
    slow_disconnects: Counter::new("test.slow_disconnects"),
    resumes: Counter::new("test.resumes"),
    replayed: Counter::new("test.replayed"),
};

fn identity() -> Identity {
    Identity {
        tenant: "t".into(),
        ports: vec![1, 2],
        queues: 4,
        interval_len: 10,
        window_intervals: 3,
    }
}

/// Hands out `chunks` one read at a time, then times out forever — a
/// connected peer that has gone quiet.
struct Quiet(VecDeque<Vec<u8>>);

impl Read for Quiet {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let Some(chunk) = self.0.pop_front() else {
            return Err(std::io::ErrorKind::WouldBlock.into());
        };
        buf[..chunk.len()].copy_from_slice(&chunk);
        Ok(chunk.len())
    }
}

/// Every frame in `wire`, in order.
fn frames(mut wire: &[u8]) -> Vec<Frame> {
    let mut out = Vec::new();
    while let Some((frame, n)) = decode_frame(wire).expect("the peer gets well-formed frames") {
        out.push(frame);
        wire = &wire[n..];
    }
    out
}

/// Run the opening over `reader` on a clock that `tick` advances per
/// poll, giving up after `max_polls`. Returns the verdict, what was
/// sent, how many polls it took, and the frames counted malformed.
fn open<R: Read>(
    reader: R,
    tick: Duration,
    max_polls: u32,
) -> (Option<Hello>, Vec<Frame>, u32, u64) {
    let counters = Counters::new(&METRICS);
    let start = Instant::now();
    let polls = std::cell::Cell::new(0u32);
    let mut sent = Vec::new();
    let hello = FrontEnd::new(&counters).read_hello(
        &mut FrameReader::new(reader),
        || start + tick * polls.get(),
        || {
            polls.set(polls.get() + 1);
            polls.get() > max_polls
        },
        |b| {
            sent.extend_from_slice(b);
            true
        },
    );
    (hello, frames(&sent), polls.get(), counters.malformed.get())
}

#[test]
fn opening_answers_probes_then_returns_the_hello() {
    let mut wire = Vec::new();
    let claim = identity().hello(Some(("tok-1".into(), 7)), Some(WireCodec::advertise()));
    for f in [&Frame::Stats, &Frame::MetricsDump, &claim] {
        wire.extend(encode_frame(f).unwrap());
    }
    let (hello, sent, _, _) = open(&wire[..], Duration::ZERO, 100);
    let hello = hello.expect("Hello after two probes");
    assert_eq!(hello.identity, identity());
    assert_eq!(hello.resume_token.as_deref(), Some("tok-1"));
    assert_eq!(hello.last_acked, Some(7));
    assert_eq!(hello.codecs, Some(WireCodec::advertise()));
    assert!(matches!(
        sent[..],
        [Frame::StatsReply { .. }, Frame::MetricsReply { .. }]
    ));
}

#[test]
fn opening_refuses_a_non_hello() {
    let wire = encode_frame(&Frame::Bye).unwrap();
    let (hello, sent, _, malformed) = open(&wire[..], Duration::ZERO, 100);
    assert_eq!(hello, None);
    let [Frame::Error { code, message }] = &sent[..] else {
        panic!("expected one Error, got {sent:?}");
    };
    assert_eq!(code, "bad_handshake");
    assert_eq!(message, "expected Hello, got Bye");
    assert_eq!(malformed, 1);
}

#[test]
fn opening_drops_a_silent_peer_at_the_deadline() {
    // One second per poll: the sixth poll is past the 5 s deadline.
    let (hello, sent, polls, _) = open(Quiet(VecDeque::new()), Duration::from_secs(1), 100);
    assert_eq!(hello, None);
    assert!(sent.is_empty());
    assert_eq!(polls, 6);
}

#[test]
fn opening_drops_a_peer_stalled_mid_frame() {
    // Two bytes of a header, then nothing; the clock stands still, so
    // only the stall budget can end this.
    let (hello, _, polls, _) = open(Quiet([vec![0, 0]].into()), Duration::ZERO, 1000);
    assert_eq!(hello, None);
    assert_eq!(polls, MAX_STALLS + 1);
    // An idle peer (nothing buffered) is not a stalled one.
    let (_, _, polls, _) = open(Quiet(VecDeque::new()), Duration::ZERO, 1000);
    assert_eq!(polls, 1001);
}

/// The read step's view of one connection after its `Welcome`: the
/// verdict of every step until the first that is not `Idle` (or
/// `max_steps`), and what the peer was sent.
struct Stepped {
    idle: u32,
    last: String,
    sent: Vec<Frame>,
    counters: Counters,
}

fn step_until_busy<R: Read>(reader: R, ledger: &Ledger, max_steps: u32) -> Stepped {
    let counters = Counters::new(&METRICS);
    let mut reader = FrameReader::new(reader);
    let mut sent = Vec::new();
    let mut front = FrontEnd::new(&counters);
    let mut idle = 0;
    let mut last = String::new();
    for _ in 0..max_steps {
        let step = front.step(&mut reader, ledger, |b| {
            sent.extend_from_slice(b);
            true
        });
        if step != Step::Idle {
            last = format!("{step:?}");
            break;
        }
        idle += 1;
    }
    Stepped {
        idle,
        last,
        sent: frames(&sent),
        counters,
    }
}

fn interval(seq: u64) -> Frame {
    Frame::Interval {
        seq,
        update: IntervalUpdate {
            port: 1,
            samples: vec![3, 0],
            maxes: vec![4, 0],
            sent: 3,
            dropped: 0,
            received: 3,
        },
        trace_id: Some(seq),
    }
}

#[test]
fn step_answers_a_probe_in_place() {
    let wire = encode_frame(&Frame::Stats).unwrap();
    let s = step_until_busy(&wire[..], &Ledger::new(8), 1);
    assert_eq!(s.idle, 1);
    assert!(matches!(s.sent[..], [Frame::StatsReply { .. }]));
}

/// A seq the ledger answered never reaches the driver: its committed
/// bytes go out again. A new seq does, with its exact wire bytes.
#[test]
fn step_answers_a_duplicate_from_the_ledger_and_hands_over_a_new_interval() {
    let ledger = Ledger::new(8);
    let ack = Frame::Ack {
        seq: 5,
        buffered: 1,
    };
    ledger.commit(5, &encode_frame(&ack).unwrap());
    let new = encode_frame_with(&interval(6), WireCodec::Bin1, 1 << 20).unwrap();
    let mut wire = encode_frame(&interval(5)).unwrap();
    wire.extend(&new);

    let counters = Counters::new(&METRICS);
    let mut reader = FrameReader::new(&wire[..]);
    let mut sent = Vec::new();
    let mut front = FrontEnd::new(&counters);
    let mut write = |b: &[u8]| {
        sent.extend_from_slice(b);
        true
    };
    assert_eq!(front.step(&mut reader, &ledger, &mut write), Step::Idle);
    let Frame::Interval { update, .. } = interval(6) else {
        unreachable!()
    };
    assert_eq!(
        front.step(&mut reader, &ledger, &mut write),
        Step::Interval {
            seq: 6,
            update,
            trace_id: Some(6),
            bytes: &new[..],
        }
    );
    assert_eq!(frames(&sent), [ack]);
    assert_eq!((counters.replayed.get(), counters.replies.get()), (1, 1));
}

#[test]
fn step_cuts_off_a_sender_stalled_mid_frame() {
    let s = step_until_busy(Quiet([vec![0, 0]].into()), &Ledger::new(8), 1000);
    assert_eq!(s.idle, MAX_STALLS);
    assert_eq!(s.last, format!("{:?}", Step::Ended(End::Stalled)));
    assert_eq!(s.counters.slow_disconnects.get(), 1);
    // An idle peer (nothing buffered) is not a stalled one.
    let s = step_until_busy(Quiet(VecDeque::new()), &Ledger::new(8), 1000);
    assert_eq!(s.idle, 1000);
}

#[test]
fn step_refuses_garbage_and_ends_the_connection() {
    let s = step_until_busy(&[0, 0, 0, 3, b'z', b'z', b'z'][..], &Ledger::new(8), 1);
    assert_eq!(s.last, format!("{:?}", Step::Ended(End::BadFrame)));
    let [Frame::Error { code, .. }] = &s.sent[..] else {
        panic!("expected one Error, got {:?}", s.sent);
    };
    assert_eq!(code, "bad_frame");
    assert_eq!(s.counters.malformed.get(), 1);
}

#[test]
fn step_recognises_bye_and_a_hangup() {
    let wire = encode_frame(&Frame::Bye).unwrap();
    let s = step_until_busy(&wire[..], &Ledger::new(8), 1);
    assert_eq!(s.last, format!("{:?}", Step::Bye));
    assert!(s.sent.is_empty());
    let s = step_until_busy(&[][..], &Ledger::new(8), 1);
    assert_eq!(s.last, format!("{:?}", Step::Ended(End::Closed)));
}

/// A frame that decodes but has no place after the `Hello` is refused
/// `unexpected`, and the session goes on.
#[test]
fn step_refuses_an_unexpected_frame_and_goes_on() {
    let mut wire = encode_frame(&identity().hello(None, None)).unwrap();
    wire.extend(encode_frame(&Frame::Bye).unwrap());
    let s = step_until_busy(&wire[..], &Ledger::new(8), 2);
    assert_eq!(s.idle, 1);
    assert_eq!(s.last, format!("{:?}", Step::Bye));
    let [Frame::Error { code, message }] = &s.sent[..] else {
        panic!("expected one Error, got {:?}", s.sent);
    };
    assert_eq!(code, "unexpected");
    assert_eq!(message, "unexpected Hello frame");
    assert_eq!(s.counters.malformed.get(), 1);
}
