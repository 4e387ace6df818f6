//! The `Hello` opening of `fmml_serve::session` with no socket under it:
//! the reader is a byte slice (or a script of chunks that then goes
//! quiet), the clock a counter, the peer a `Vec` of what was sent.

use fmml_serve::protocol::{encode_frame, Frame, FrameReader, WireCodec};
use fmml_serve::session::{read_hello, Hello, Identity, MAX_STALLS};
use std::collections::VecDeque;
use std::io::Read;
use std::time::{Duration, Instant};

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

/// Run the opening over `reader` on a clock that `tick` advances per
/// poll, giving up after `max_polls`. Returns the verdict, what was
/// sent, and how many polls it took.
fn open<R: Read>(reader: R, tick: Duration, max_polls: u32) -> (Option<Hello>, Vec<Frame>, u32) {
    let start = Instant::now();
    let polls = std::cell::Cell::new(0u32);
    let mut sent = Vec::new();
    let hello = read_hello(
        &mut FrameReader::new(reader),
        || start + tick * polls.get(),
        || {
            polls.set(polls.get() + 1);
            polls.get() > max_polls
        },
        || Frame::Bye, // stands in for a StatsReply
        |f| {
            sent.push(f.clone());
            true
        },
    );
    (hello, sent, polls.get())
}

#[test]
fn opening_answers_probes_then_returns_the_hello() {
    let mut wire = Vec::new();
    let claim = identity().hello(Some(("tok-1".into(), 7)), Some(WireCodec::advertise()));
    for f in [&Frame::Stats, &Frame::MetricsDump, &claim] {
        wire.extend(encode_frame(f).unwrap());
    }
    let (hello, sent, _) = open(&wire[..], Duration::ZERO, 100);
    let hello = hello.expect("Hello after two probes");
    assert_eq!(hello.identity, identity());
    assert_eq!(hello.resume_token.as_deref(), Some("tok-1"));
    assert_eq!(hello.last_acked, Some(7));
    assert_eq!(hello.codecs, Some(WireCodec::advertise()));
    assert!(matches!(sent[..], [Frame::Bye, Frame::MetricsReply { .. }]));
}

#[test]
fn opening_refuses_a_non_hello() {
    let wire = encode_frame(&Frame::Bye).unwrap();
    let (hello, sent, _) = open(&wire[..], Duration::ZERO, 100);
    assert_eq!(hello, None);
    let [Frame::Error { code, message }] = &sent[..] else {
        panic!("expected one Error, got {sent:?}");
    };
    assert_eq!(code, "bad_handshake");
    assert_eq!(message, "expected Hello, got Bye");
}

#[test]
fn opening_drops_a_silent_peer_at_the_deadline() {
    // One second per poll: the sixth poll is past the 5 s deadline.
    let (hello, sent, polls) = open(Quiet(VecDeque::new()), Duration::from_secs(1), 100);
    assert_eq!(hello, None);
    assert!(sent.is_empty());
    assert_eq!(polls, 6);
}

#[test]
fn opening_drops_a_peer_stalled_mid_frame() {
    // Two bytes of a header, then nothing; the clock stands still, so
    // only the stall budget can end this.
    let (hello, _, polls) = open(Quiet([vec![0, 0]].into()), Duration::ZERO, 1000);
    assert_eq!(hello, None);
    assert_eq!(polls, MAX_STALLS + 1);
    // An idle peer (nothing buffered) is not a stalled one.
    let (_, _, polls) = open(Quiet(VecDeque::new()), Duration::ZERO, 1000);
    assert_eq!(polls, 1001);
}
