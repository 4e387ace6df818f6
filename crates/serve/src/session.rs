//! The exactly-once session, written once: what a `Hello` claims
//! ([`Identity`]), the [`welcome`], the token mint, the [`Ledger`] of
//! committed replies, the server half that reads a client connection
//! ([`FrontEnd`]: the opening, one read step, the resume reply) with the
//! [`Counters`] behind its `StatsReply`, and the client half
//! ([`ClientSession`]).
//! The server ([`crate::server`]) and the cluster router drive the
//! server half; the load generator (`crate::loadgen`) and the
//! simulation explorer drive the client half. None of it owns a socket
//! or reads a clock — writes go through a closure the driver lends it or
//! come back as bytes, time arrives as an argument — so a test can feed
//! it a byte slice.
//!
//! The contract lives on the [`Ledger`]'s three methods and nowhere
//! else: record before send ([`Ledger::commit`]), answer a duplicate
//! from the log and never feed a sliding window twice
//! ([`Ledger::answered`]), replay past the client's ack on resume
//! ([`Ledger::resume`]).

use crate::protocol::{encode_frame_with, Frame, FrameReader, WireCodec, WireError, MAX_FRAME_LEN};
use fmml_core::streaming::IntervalUpdate;
use fmml_obs::{Counter, Gauge};
use std::collections::{BTreeMap, VecDeque};
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How long a connection may stay open without sending its `Hello`.
pub const HELLO_DEADLINE: Duration = Duration::from_secs(5);
/// Consecutive mid-frame read timeouts before a stalled sender is
/// disconnected.
pub const MAX_STALLS: u32 = 80;

/// What a `Hello` claims. Two `Hello`s name the same session lineage iff
/// their identities are equal: `==` *is* the "may this reconnect claim
/// that parked session" check (port order included — it is the order the
/// imputers were built in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identity {
    pub tenant: String,
    pub ports: Vec<usize>,
    pub queues: usize,
    pub interval_len: usize,
    pub window_intervals: usize,
}

impl Identity {
    /// A `Hello` for this identity, claiming `resume` = (token,
    /// last_acked) if given. A router sends every backend it places the
    /// session on a tokenless one.
    pub fn hello(&self, resume: Option<(String, u64)>, codecs: Option<Vec<String>>) -> Frame {
        let (resume_token, last_acked) = resume.unzip();
        Frame::Hello {
            tenant: self.tenant.clone(),
            ports: self.ports.clone(),
            queues: self.queues,
            interval_len: self.interval_len,
            window_intervals: self.window_intervals,
            resume_token,
            last_acked,
            codecs,
        }
    }
}

/// A received `Hello`: the identity plus the per-connection fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    pub identity: Identity,
    pub resume_token: Option<String>,
    pub last_acked: Option<u64>,
    pub codecs: Option<Vec<String>>,
}

/// The process-global metrics of one kind of endpoint: `serve.*` for
/// servers, `cluster.*` for routers. Each instance's [`Counters`] adds to
/// them as it counts.
pub struct Metrics {
    pub sessions: Counter,
    pub active: Gauge,
    pub accepted: Counter,
    pub rejected: Counter,
    pub malformed: Counter,
    pub replies: Counter,
    pub writes: Counter,
    pub batches: Counter,
    pub deadline_misses: Counter,
    pub violations: Counter,
    pub slow_disconnects: Counter,
    pub resumes: Counter,
    pub replayed: Counter,
}

/// One instance's count of one event, mirrored into a process-global
/// metric: an event is recorded with one call.
pub struct Count {
    local: AtomicU64,
    global: &'static Counter,
}

impl Count {
    pub const fn new(global: &'static Counter) -> Count {
        Count {
            local: AtomicU64::new(0),
            global,
        }
    }

    /// Add `n`; returns this instance's count before it.
    pub fn add(&self, n: u64) -> u64 {
        self.global.add(n);
        self.local.fetch_add(n, Ordering::Relaxed)
    }

    pub fn inc(&self) -> u64 {
        self.add(1)
    }

    pub fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

/// One endpoint instance's counters, behind its `StatsReply`. A server
/// and a router count the same way, so a client cannot tell them apart
/// by their stats either: `accepted` = intervals answered `Ack` or
/// `Imputed`, `rejected` = `Busy`, `malformed` = `Reject`s and refused
/// frames, `replies` = `Imputed` written plus replayed replies.
pub struct Counters {
    pub sessions: Count,
    pub accepted: Count,
    pub rejected: Count,
    pub malformed: Count,
    pub replies: Count,
    /// Socket writes that carried `Imputed` replies (not in
    /// `StatsReply`; `replies / writes` is replies per write).
    pub writes: Count,
    pub batches: Count,
    pub deadline_misses: Count,
    pub violations: Count,
    pub slow_disconnects: Count,
    pub resumes: Count,
    pub replayed: Count,
    active: AtomicU64,
    active_gauge: &'static Gauge,
}

impl Counters {
    pub fn new(m: &'static Metrics) -> Counters {
        Counters {
            sessions: Count::new(&m.sessions),
            accepted: Count::new(&m.accepted),
            rejected: Count::new(&m.rejected),
            malformed: Count::new(&m.malformed),
            replies: Count::new(&m.replies),
            writes: Count::new(&m.writes),
            batches: Count::new(&m.batches),
            deadline_misses: Count::new(&m.deadline_misses),
            violations: Count::new(&m.violations),
            slow_disconnects: Count::new(&m.slow_disconnects),
            resumes: Count::new(&m.resumes),
            replayed: Count::new(&m.replayed),
            active: AtomicU64::new(0),
            active_gauge: &m.active,
        }
    }

    /// A client attached to a session.
    pub fn attached(&self) {
        self.active_gauge.add(1);
        self.active.fetch_add(1, Ordering::Relaxed);
    }

    /// A session's client went away (parked or closed).
    pub fn detached(&self) {
        self.active_gauge.add(-1);
        self.active.fetch_sub(1, Ordering::Relaxed);
    }

    /// One write carried `n` `Imputed` replies.
    pub fn wrote(&self, n: u64) {
        self.writes.inc();
        self.replies.add(n);
    }

    /// Count a per-seq answer by what it says (`tag`); `written`: it
    /// reached the socket.
    pub fn answered(&self, tag: &str, written: bool) {
        match tag {
            "Ack" => self.accepted.inc(),
            "Imputed" => {
                if written {
                    self.wrote(1);
                }
                self.accepted.inc()
            }
            "Busy" => self.rejected.inc(),
            "Reject" => self.malformed.inc(),
            _ => 0,
        };
    }

    pub fn stats_frame(&self) -> Frame {
        Frame::StatsReply {
            sessions: self.sessions.get(),
            active_sessions: self.active.load(Ordering::Relaxed),
            accepted: self.accepted.get(),
            rejected: self.rejected.get(),
            malformed: self.malformed.get(),
            replies: self.replies.get(),
            batches: self.batches.get(),
            deadline_misses: self.deadline_misses.get(),
            violations: self.violations.get(),
            slow_disconnects: self.slow_disconnects.get(),
        }
    }
}

/// What one [`FrontEnd::step`] hands its driver.
#[derive(Debug, PartialEq)]
pub enum Step<'r> {
    /// Nothing for the driver: the read timed out, or a probe, a
    /// duplicate or an unexpected frame was answered in place.
    Idle,
    /// A new `Interval`, decoded, and its wire bytes.
    Interval {
        seq: u64,
        update: IntervalUpdate,
        trace_id: Option<u64>,
        bytes: &'r [u8],
    },
    /// The client said `Bye`.
    Bye,
    /// The connection is over.
    Ended(End),
}

/// Why a connection ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// The peer hung up, or the socket failed.
    Closed,
    /// A frame stayed half-sent past [`MAX_STALLS`] read timeouts.
    Stalled,
    /// A frame that does not decode, refused with `bad_frame`.
    BadFrame,
}

/// The server half of one client connection, for a server and a router
/// alike: the opening ([`read_hello`](FrontEnd::read_hello)), the read
/// step after it ([`step`](FrontEnd::step)), the `Welcome` and the resume
/// reply ([`resume`](FrontEnd::resume)). It owns the mid-frame stall
/// budget and the codec its own frames go out in, and counts what it
/// answers in the endpoint's [`Counters`]. Every write goes through the
/// driver's `write` closure, which reports success.
pub struct FrontEnd<'a> {
    counters: &'a Counters,
    codec: WireCodec,
    /// Consecutive read timeouts with a frame half-sent; an idle peer
    /// (nothing buffered) never counts.
    stalls: u32,
}

impl<'a> FrontEnd<'a> {
    /// A fresh connection; it speaks JSON until its `Welcome`.
    pub fn new(counters: &'a Counters) -> FrontEnd<'a> {
        FrontEnd {
            counters,
            codec: WireCodec::Json,
            stalls: 0,
        }
    }

    /// Encode `frame` in this connection's codec and write it.
    pub fn send(&self, frame: &Frame, mut write: impl FnMut(&[u8]) -> bool) -> bool {
        encode_frame_with(frame, self.codec, MAX_FRAME_LEN).is_ok_and(|b| write(&b))
    }

    /// Poll one frame, spending the stall budget on timeouts. `Err`
    /// ends the connection; a spent budget reads as
    /// [`WireError::Timeout`], which a poll never returns itself.
    fn poll<R: Read>(&mut self, reader: &mut FrameReader<R>) -> Result<Option<Frame>, WireError> {
        let polled = reader.poll_frame();
        match &polled {
            Ok(None) if reader.pending() > 0 => self.stalls += 1,
            _ => self.stalls = 0,
        }
        if self.stalls > MAX_STALLS {
            return Err(WireError::Timeout);
        }
        polled
    }

    /// What a monitoring probe is owed — `Stats` this endpoint's
    /// counters, `MetricsDump` the process's obs registry — answered
    /// before, during or without a session. `false`: not a probe.
    fn probe(&self, frame: &Frame, write: impl FnMut(&[u8]) -> bool) -> bool {
        let reply = match frame {
            Frame::Stats => self.counters.stats_frame(),
            Frame::MetricsDump => Frame::MetricsReply {
                json: fmml_obs::dump_json(),
            },
            _ => return false,
        };
        self.send(&reply, write);
        true
    }

    /// The opening: answer probes until the `Hello` arrives. `None`
    /// closes the connection: the peer hung up, `stop` fired, the `Hello`
    /// did not arrive within [`HELLO_DEADLINE`] of the first `now()`, a
    /// frame stalled past [`MAX_STALLS`], or the first non-probe frame was
    /// not a `Hello` (refused with `bad_handshake`).
    pub fn read_hello<R: Read>(
        &mut self,
        reader: &mut FrameReader<R>,
        now: impl Fn() -> Instant,
        stop: impl Fn() -> bool,
        mut write: impl FnMut(&[u8]) -> bool,
    ) -> Option<Hello> {
        let deadline = now() + HELLO_DEADLINE;
        loop {
            if stop() || now() > deadline {
                return None;
            }
            let Some(frame) = self.poll(reader).ok()? else {
                continue;
            };
            if self.probe(&frame, &mut write) {
                continue;
            }
            let Frame::Hello {
                tenant,
                ports,
                queues,
                interval_len,
                window_intervals,
                resume_token,
                last_acked,
                codecs,
            } = frame
            else {
                self.refuse(
                    "bad_handshake",
                    format!("expected Hello, got {}", frame.tag()),
                    write,
                );
                return None;
            };
            return Some(Hello {
                identity: Identity {
                    tenant,
                    ports,
                    queues,
                    interval_len,
                    window_intervals,
                },
                resume_token,
                last_acked,
                codecs,
            });
        }
    }

    /// Answer `Error{code}` and count the frame malformed.
    pub fn refuse(&self, code: &str, message: String, write: impl FnMut(&[u8]) -> bool) {
        self.counters.malformed.inc();
        let code = code.into();
        self.send(&Frame::Error { code, message }, write);
    }

    /// Send the `Welcome` — as JSON, like everything before it, so any
    /// client can read the verdict — and speak `codec` from then on.
    pub fn welcome(
        &mut self,
        welcome: &Frame,
        codec: WireCodec,
        write: impl FnMut(&[u8]) -> bool,
    ) -> bool {
        let sent = self.send(welcome, write);
        self.codec = codec;
        sent
    }

    /// One read after the `Welcome`. Probes are answered, a duplicate
    /// `Interval` is answered from `ledger` (no window is fed twice), a
    /// frame that does not decode is refused `bad_frame` and ends the
    /// connection, any other frame but `Interval` or `Bye` is refused
    /// `unexpected` and the session goes on. The driver sees only new
    /// intervals, `Bye` and the end.
    pub fn step<'r, R: Read>(
        &mut self,
        reader: &'r mut FrameReader<R>,
        ledger: &Ledger,
        mut write: impl FnMut(&[u8]) -> bool,
    ) -> Step<'r> {
        let frame = match self.poll(reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return Step::Idle,
            Err(WireError::Timeout) => {
                self.counters.slow_disconnects.inc();
                return Step::Ended(End::Stalled);
            }
            Err(WireError::Closed | WireError::Io(_)) => return Step::Ended(End::Closed),
            Err(e) => {
                // Truncated, oversized or malformed: framing is lost, so
                // report and hang up.
                self.refuse("bad_frame", e.to_string(), write);
                return Step::Ended(End::BadFrame);
            }
        };
        if self.probe(&frame, &mut write) {
            return Step::Idle;
        }
        match frame {
            Frame::Interval {
                seq,
                update,
                trace_id,
            } => {
                if let Some(reply) = ledger.answered(seq) {
                    self.replay(&reply, write);
                    return Step::Idle;
                }
                Step::Interval {
                    seq,
                    update,
                    trace_id,
                    bytes: reader.frame_bytes(),
                }
            }
            Frame::Bye => Step::Bye,
            other => {
                let message = format!("unexpected {} frame", other.tag());
                self.refuse("unexpected", message, write);
                Step::Idle
            }
        }
    }

    /// Write one committed reply again.
    fn replay(&self, bytes: &[u8], mut write: impl FnMut(&[u8]) -> bool) -> bool {
        self.counters.replayed.inc();
        let sent = write(bytes);
        if sent {
            self.counters.wrote(1);
        }
        sent
    }

    /// The resume reply, once the driver has claimed the session and
    /// attached this connection to it: [`Ledger::resume`], the resumed
    /// `Welcome` that `welcome` builds from its `resume_seq`, then the
    /// replay, in seq order. `false`: a write failed; everything owed is
    /// still in the ledger, and the driver parks the session again.
    pub fn resume(
        &mut self,
        ledger: &Ledger,
        last_acked: Option<u64>,
        bug: Option<ProtocolBug>,
        welcome: impl FnOnce(u64) -> Frame,
        codec: WireCodec,
        mut write: impl FnMut(&[u8]) -> bool,
    ) -> bool {
        self.counters.resumes.inc();
        let (resume_seq, replay) = ledger.resume(last_acked, bug);
        self.welcome(&welcome(resume_seq), codec, &mut write)
            && replay.iter().all(|bytes| self.replay(bytes, &mut write))
    }
}

/// The `Welcome`, fresh (`resume_seq: None`) or resumed (`Some`, from
/// [`Ledger::resume`]: where the client rewinds to). `token` is `None`
/// when resumption is off; a resumable endpoint always states the
/// verdict, so a failed resume attempt is answered honestly (`resumed:
/// false`): the client must treat its pending intervals as lost, not
/// wait for a replay. The `Welcome` itself travels as JSON; `codec` is
/// what everything after it speaks — negotiated at birth and only
/// restated on resume, because the replayed bytes are pre-encoded in it.
pub fn welcome(
    session: u64,
    deadline_ms: u64,
    token: Option<&str>,
    resume_seq: Option<u64>,
    codec: WireCodec,
) -> Frame {
    Frame::Welcome {
        session,
        deadline_ms,
        resume_token: token.map(String::from),
        resumed: token.map(|_| resume_seq.is_some()),
        resume_seq,
        codec: Some(codec.label().into()),
    }
}

/// One step of splitmix64: the token mint here, and every seeded
/// schedule draw of the simulation explorer.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mint the next resume token of a deterministic sequence (splitmix64
/// over `state`, which advances). Unguessability is NOT a design goal —
/// the protocol is plaintext and the tenant string is already
/// client-asserted; the token exists to route a reconnect to the right
/// parked state, not to authenticate it. The server seeds `state` with
/// the session id (`tok-…`), the router keeps one running state per
/// ring seed (`rtok-…`).
pub fn resume_token_for(prefix: &str, state: &mut u64) -> String {
    format!("{prefix}-{:016x}", splitmix64(state))
}

/// A deliberately wrong protocol behaviour, used by `fmml-simtest` to
/// validate that the conformance checker actually catches violations (a
/// checker that never fires proves nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolBug {
    /// On resume, replay starts one seq too late (`last_acked + 1`
    /// exclusive instead of `last_acked` exclusive), silently skipping
    /// the first un-acked reply.
    ReplayOffByOne,
}

/// Replies a [`Ledger`] keeps for a resume, at a server and a router.
pub const REPLAY_WINDOW: usize = 1024;

/// One session's committed replies: the bounded [`ReplayLog`] plus the
/// resolved-seq watermark. Shared between the thread that reads the
/// client and the threads that produce replies; the watermark is an
/// atomic so the per-`Interval` duplicate check is one compare (no lock)
/// whenever `seq` is new.
pub struct Ledger {
    replay: Mutex<ReplayLog>,
    /// Highest seq a reply was committed for (Ack / Imputed / Busy /
    /// Reject all count — every received seq resolves exactly one way).
    /// Raised under the log's lock, after the record.
    highest_seq: AtomicU64,
}

impl Ledger {
    /// A ledger that keeps the last `cap > 0` replies ([`REPLAY_WINDOW`]
    /// at every endpoint).
    pub fn new(cap: usize) -> Ledger {
        Ledger {
            replay: Mutex::new(ReplayLog::new(cap)),
            highest_seq: AtomicU64::new(0),
        }
    }

    /// Record-before-send: commit `seq`'s encoded reply. The caller
    /// writes `bytes` to the client only after this returns.
    pub fn commit(&self, seq: u64, bytes: &[u8]) {
        let mut replay = self.replay.lock().unwrap_or_else(PoisonError::into_inner);
        replay.record(seq, bytes);
        self.highest_seq.fetch_max(seq, Ordering::AcqRel);
    }

    /// The committed reply for `seq`, if it is still retained — the
    /// answer to a duplicate `Interval` and the guard against a reply
    /// that raced a migration. A seq at or below the watermark *without*
    /// a logged reply is a reordered frame that was never resolved (or
    /// one the bounded log let go): `None`, the caller treats it as new.
    pub fn answered(&self, seq: u64) -> Option<Vec<u8>> {
        if seq > self.highest_seq.load(Ordering::Acquire) {
            return None;
        }
        self.replay
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(seq)
    }

    /// Resume after a reconnect that acknowledged everything up to
    /// `last_acked`: returns `(resume_seq, replay)` — the watermark for
    /// the resumed `Welcome` (every seq at or below it has a committed
    /// reply, every seq above it never resolved) and, in seq order, the
    /// retained replies past the client's ack point, one snapshot under
    /// the log's lock. The ack also becomes the eviction watermark:
    /// everything at or below it is confirmed processed and safe to drop
    /// first.
    pub fn resume(&self, last_acked: Option<u64>, bug: Option<ProtocolBug>) -> (u64, Vec<Vec<u8>>) {
        let acked = last_acked.unwrap_or(0);
        let after = match bug {
            // Skips the first un-acked reply, which the model checker
            // must catch as a completeness violation.
            Some(ProtocolBug::ReplayOffByOne) => acked + 1,
            None => acked,
        };
        let mut replay = self.replay.lock().unwrap_or_else(PoisonError::into_inner);
        replay.set_acked(acked);
        let entries = replay.since(after);
        (
            self.highest_seq.load(Ordering::Acquire),
            entries.into_iter().map(|(_, bytes)| bytes).collect(),
        )
    }
}

/// The client half of the session: seq allocation, the pending map, the
/// resume token and the codec the `Welcome` picked. Like the [`Ledger`]
/// it has no socket, thread or clock: [`send`](ClientSession::send)
/// hands back the bytes to write, [`welcome`](ClientSession::welcome)
/// the bytes to re-write. Every unanswered `Interval` is held as the
/// exact bytes that went out, so a re-send after resume is the same
/// frame — trace id included — and never a re-encoding of its source.
/// `T` is a per-seq tag the driver gets back with the first answer (the
/// load generator's send time and trace id; `()` in the simulator).
pub struct ClientSession<T = ()> {
    identity: Identity,
    /// What the `Hello` advertises (`None`: stay on JSON).
    codecs: Option<Vec<String>>,
    last_seq: u64,
    /// seq → (encoded `Interval`, tag), for every seq not yet answered.
    pending: BTreeMap<u64, (Vec<u8>, T)>,
    token: Option<String>,
    codec: WireCodec,
}

/// What a `Welcome` means for the pending seqs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Welcomed {
    /// The lineage resumed: the server replays every seq up to its
    /// `resume_seq`; `resend` holds, in seq order, the bytes of every
    /// pending seq above it, which the client must write again.
    Resumed { resend: Vec<(u64, Vec<u8>)> },
    /// A fresh session (no token yet, or the parked one expired): the
    /// pending seqs in `lost` will never be answered.
    Fresh { lost: Vec<u64> },
}

impl<T> ClientSession<T> {
    /// A client that has never connected; `wire` is the codec it asks
    /// for ([`WireCodec::Json`] does not advertise).
    pub fn new(identity: Identity, wire: WireCodec) -> ClientSession<T> {
        ClientSession {
            identity,
            codecs: (wire == WireCodec::Bin1).then(WireCodec::advertise),
            last_seq: 0,
            pending: BTreeMap::new(),
            token: None,
            codec: WireCodec::Json,
        }
    }

    /// The `Hello` of the next (re)connect. With a token it asks to
    /// resume and acknowledges everything below the oldest pending seq
    /// (the last seq if nothing is pending).
    pub fn hello(&self) -> Frame {
        let last_acked = self.pending.keys().next().map_or(self.last_seq, |&s| s - 1);
        let resume = self.token.clone().map(|token| (token, last_acked));
        self.identity.hello(resume, self.codecs.clone())
    }

    /// Read the server's answer to [`hello`](ClientSession::hello):
    /// adopt its token and codec and say what becomes of the pending
    /// seqs. `None`: `frame` is not a `Welcome`.
    pub fn welcome(&mut self, frame: &Frame) -> Option<Welcomed> {
        let Frame::Welcome {
            resume_token,
            resumed,
            resume_seq,
            codec,
            ..
        } = frame
        else {
            return None;
        };
        self.token = resume_token.clone();
        // An old server's Welcome has no codec key: JSON.
        self.codec = codec
            .as_deref()
            .and_then(WireCodec::parse)
            .unwrap_or_default();
        Some(if *resumed == Some(true) {
            let resume_seq = resume_seq.unwrap_or(0);
            let resend = self
                .pending
                .range(resume_seq + 1..)
                .map(|(&seq, (bytes, _))| (seq, bytes.clone()))
                .collect();
            Welcomed::Resumed { resend }
        } else {
            let lost = std::mem::take(&mut self.pending).into_keys().collect();
            Welcomed::Fresh { lost }
        })
    }

    /// Allocate the next seq for `update` and encode its `Interval` in
    /// the negotiated codec; the caller writes the returned bytes.
    pub fn send(
        &mut self,
        update: IntervalUpdate,
        trace_id: Option<u64>,
        tag: T,
    ) -> (u64, Vec<u8>) {
        self.last_seq += 1;
        let seq = self.last_seq;
        let frame = Frame::Interval {
            seq,
            update,
            trace_id,
        };
        let bytes = encode_frame_with(&frame, self.codec, MAX_FRAME_LEN).expect("encode interval");
        self.pending.insert(seq, (bytes.clone(), tag));
        (seq, bytes)
    }

    /// Classify a reply (`Ack`, `Imputed`, `Busy` or `Reject` for
    /// `seq`): the first answer hands back the seq's tag, a duplicate —
    /// a resume replay overlapping what already arrived — `None`.
    pub fn answer(&mut self, seq: u64) -> Option<T> {
        self.pending.remove(&seq).map(|(_, tag)| tag)
    }

    /// The codec everything after the `Welcome` is encoded in.
    pub fn codec(&self) -> WireCodec {
        self.codec
    }

    /// The resume token of the last `Welcome` (`None` before the first).
    pub fn token(&self) -> Option<&str> {
        self.token.as_deref()
    }

    /// Sent seqs still waiting for their first answer.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

/// Bounded log of recently shipped per-seq replies (encoded bytes).
///
/// The log is bounded at `cap` entries; eviction prefers entries the
/// client has already acknowledged (`seq <= acked` watermark) so a
/// bounded log never silently discards a reply the client may still
/// need — as long as the un-acked span fits in `cap`. When it does not
/// (a client that never acks more than `cap` replies behind), the oldest
/// entry is evicted anyway and the forced eviction is counted:
/// resumption degrades observably instead of wedging the session on an
/// unbounded buffer.
pub struct ReplayLog {
    entries: VecDeque<(u64, Vec<u8>)>,
    cap: usize,
    /// Highest seq the client has confirmed processing (from
    /// `Hello.last_acked` on resume). Entries at or below it are safe
    /// to evict; entries above it are preserved while capacity allows.
    acked: u64,
    forced_evictions: u64,
}

impl ReplayLog {
    /// A log of at most `cap` replies; `cap` must be positive.
    pub fn new(cap: usize) -> ReplayLog {
        assert!(cap > 0, "a replay log keeps at least one reply");
        ReplayLog {
            entries: VecDeque::new(),
            cap,
            acked: 0,
            forced_evictions: 0,
        }
    }

    /// Record the reply for `seq`. At capacity, evicts an
    /// already-acked entry if one exists, else the oldest entry
    /// (counted in [`forced_evictions`](ReplayLog::forced_evictions)).
    pub fn record(&mut self, seq: u64, bytes: &[u8]) {
        while self.entries.len() >= self.cap {
            if let Some(i) = self.entries.iter().position(|(s, _)| *s <= self.acked) {
                self.entries.remove(i);
            } else {
                self.forced_evictions += 1;
                self.entries.pop_front();
            }
        }
        self.entries.push_back((seq, bytes.to_vec()));
    }

    /// The retained reply for `seq`, if any (duplicate-seq answers).
    pub fn get(&self, seq: u64) -> Option<Vec<u8>> {
        self.entries
            .iter()
            .rev()
            .find(|(s, _)| *s == seq)
            .map(|(_, b)| b.clone())
    }

    /// Every retained reply with `seq > after`, in seq order.
    pub fn since(&self, after: u64) -> Vec<(u64, Vec<u8>)> {
        let mut out: Vec<(u64, Vec<u8>)> = self
            .entries
            .iter()
            .filter(|(s, _)| *s > after)
            .cloned()
            .collect();
        out.sort_by_key(|(s, _)| *s);
        out
    }

    /// Raise the acked watermark (monotonic; lower values are ignored).
    pub fn set_acked(&mut self, seq: u64) {
        self.acked = self.acked.max(seq);
    }

    /// Current acked watermark.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evictions that had to discard an un-acked entry because the
    /// un-acked span exceeded `cap`. Non-zero means a resuming client
    /// may find a gap it can only fill by resending.
    pub fn forced_evictions(&self) -> u64 {
        self.forced_evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bytes_for(seq: u64) -> Vec<u8> {
        seq.to_be_bytes().to_vec()
    }

    #[test]
    #[should_panic(expected = "at least one reply")]
    fn a_log_without_room_is_refused() {
        ReplayLog::new(0);
    }

    #[test]
    fn eviction_prefers_acked_entries() {
        let mut log = ReplayLog::new(3);
        log.record(1, &bytes_for(1));
        log.record(2, &bytes_for(2));
        log.record(3, &bytes_for(3));
        log.set_acked(2);
        // At capacity: recording 4 must evict 1 or 2 (acked), never 3.
        log.record(4, &bytes_for(4));
        assert!(log.get(3).is_some());
        assert!(log.get(4).is_some());
        assert_eq!(log.forced_evictions(), 0);
        // And again: evicts the remaining acked entry.
        log.record(5, &bytes_for(5));
        assert!(log.get(3).is_some());
        assert!(log.get(5).is_some());
        assert_eq!(log.forced_evictions(), 0);
        // No acked entries left: the next record forces one out.
        log.record(6, &bytes_for(6));
        assert_eq!(log.forced_evictions(), 1);
    }

    #[test]
    fn since_is_seq_ordered_and_exclusive() {
        let mut log = ReplayLog::new(8);
        // Commit order need not be seq order (concurrent workers).
        for seq in [2u64, 1, 4, 3] {
            log.record(seq, &bytes_for(seq));
        }
        let replay = log.since(1);
        assert_eq!(
            replay.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(log.since(4).is_empty());
    }

    #[test]
    fn acked_watermark_is_monotonic() {
        let mut log = ReplayLog::new(4);
        log.set_acked(7);
        log.set_acked(3);
        assert_eq!(log.acked(), 7);
    }

    fn identity() -> Identity {
        Identity {
            tenant: "t".into(),
            ports: vec![1, 2],
            queues: 4,
            interval_len: 10,
            window_intervals: 3,
        }
    }

    /// `==` is the claim check: any field off — port order included —
    /// and the reconnect may not claim the session.
    #[test]
    fn identity_mismatch_matrix() {
        let base = identity();
        assert_eq!(base, base.clone());
        let others = [
            Identity {
                tenant: "u".into(),
                ..base.clone()
            },
            Identity {
                ports: vec![2, 1],
                ..base.clone()
            },
            Identity {
                ports: vec![1],
                ..base.clone()
            },
            Identity {
                queues: 5,
                ..base.clone()
            },
            Identity {
                interval_len: 11,
                ..base.clone()
            },
            Identity {
                window_intervals: 4,
                ..base.clone()
            },
        ];
        for other in others {
            assert_ne!(other, base);
        }
    }

    #[test]
    fn welcome_states_the_verdict_iff_resumable() {
        let fresh = welcome(3, 50, Some("tok"), None, WireCodec::Bin1);
        let resumed = welcome(3, 50, Some("tok"), Some(9), WireCodec::Bin1);
        let off = welcome(3, 50, None, None, WireCodec::Json);
        let verdict = |f: &Frame| match f {
            Frame::Welcome {
                resumed,
                resume_seq,
                resume_token,
                ..
            } => (*resumed, *resume_seq, resume_token.clone()),
            other => panic!("not a Welcome: {other:?}"),
        };
        assert_eq!(verdict(&fresh), (Some(false), None, Some("tok".into())));
        assert_eq!(verdict(&resumed), (Some(true), Some(9), Some("tok".into())));
        assert_eq!(verdict(&off), (None, None, None));
    }

    /// The bits the server (`tok-`, state = session id) and the router
    /// (`rtok-`, one running state) have always minted.
    #[test]
    fn tokens_keep_their_bits() {
        assert_eq!(resume_token_for("tok", &mut 1), "tok-910a2dec89025cc1");
        let mut state = 0;
        assert_eq!(
            resume_token_for("rtok", &mut state),
            "rtok-e220a8397b1dcdaf"
        );
        assert_eq!(
            resume_token_for("rtok", &mut state),
            "rtok-6e789e6aa1b965f4"
        );
    }

    #[test]
    fn ledger_answers_only_what_it_committed() {
        let ledger = Ledger::new(8);
        assert_eq!(ledger.answered(1), None);
        // Commit order need not be seq order (concurrent workers).
        for seq in [2u64, 1, 4] {
            ledger.commit(seq, &bytes_for(seq));
        }
        assert_eq!(ledger.answered(2), Some(bytes_for(2)));
        // Below the watermark but never resolved: a reordered frame.
        assert_eq!(ledger.answered(3), None);
        assert_eq!(ledger.answered(5), None);
    }

    #[test]
    fn ledger_resume_replays_past_the_ack_in_seq_order() {
        let ledger = Ledger::new(8);
        for seq in [2u64, 1, 4, 3] {
            ledger.commit(seq, &bytes_for(seq));
        }
        let (resume_seq, replay) = ledger.resume(Some(1), None);
        assert_eq!(resume_seq, 4);
        assert_eq!(replay, [bytes_for(2), bytes_for(3), bytes_for(4)]);
        assert_eq!(ledger.resume(None, None).1.len(), 4);
        // The planted bug skips the first un-acked reply.
        let (resume_seq, replay) = ledger.resume(Some(1), Some(ProtocolBug::ReplayOffByOne));
        assert_eq!(resume_seq, 4);
        assert_eq!(replay, [bytes_for(3), bytes_for(4)]);
    }

    fn update(k: u32) -> IntervalUpdate {
        IntervalUpdate {
            port: 1,
            samples: vec![k, 0],
            maxes: vec![k + 1, 0],
            sent: k,
            dropped: 0,
            received: k,
        }
    }

    fn client_welcome(session: &mut ClientSession<u32>, resume_seq: Option<u64>) -> Welcomed {
        let frame = welcome(1, 50, Some("tok"), resume_seq, WireCodec::Bin1);
        session.welcome(&frame).expect("a Welcome")
    }

    /// A resumed `Welcome` hands back exactly the bytes `send` produced —
    /// trace id and pre-resume codec included — for every pending seq
    /// above `resume_seq`, in seq order, and nothing at or below it.
    #[test]
    fn resumed_welcome_resends_the_sent_bytes_above_resume_seq() {
        let mut session = ClientSession::new(identity(), WireCodec::Bin1);
        assert_eq!(
            client_welcome(&mut session, None),
            Welcomed::Fresh { lost: vec![] }
        );
        assert_eq!(session.codec(), WireCodec::Bin1);
        let sent: Vec<(u64, Vec<u8>)> = (0..6)
            .map(|k| session.send(update(k), Some(100 + k as u64), k))
            .collect();
        assert_eq!(session.answer(1), Some(0));
        assert_eq!(session.answer(1), None, "a second answer is a duplicate");
        assert_eq!(session.answer(4), Some(3));
        let Frame::Hello {
            resume_token,
            last_acked,
            ..
        } = session.hello()
        else {
            panic!("not a Hello");
        };
        assert_eq!(
            (resume_token.as_deref(), last_acked),
            (Some("tok"), Some(1))
        );
        let Welcomed::Resumed { resend } = client_welcome(&mut session, Some(3)) else {
            panic!("not resumed");
        };
        let want: Vec<_> = sent
            .into_iter()
            .filter(|(seq, _)| [5, 6].contains(seq))
            .collect();
        assert_eq!(resend, want);
        // Seqs 2 and 3 stay pending: the replay owes them.
        assert_eq!(session.pending(), 4);
    }

    #[test]
    fn fresh_welcome_loses_the_pending_seqs_but_not_the_seq_counter() {
        let mut session = ClientSession::new(identity(), WireCodec::Json);
        let Frame::Hello {
            resume_token: None,
            last_acked: None,
            codecs: None,
            ..
        } = session.hello()
        else {
            panic!("a first Hello carries no token, ack or advertisement");
        };
        client_welcome(&mut session, None);
        session.send(update(0), None, 0);
        session.send(update(1), None, 1);
        assert_eq!(
            client_welcome(&mut session, None),
            Welcomed::Fresh { lost: vec![1, 2] }
        );
        assert_eq!(session.pending(), 0);
        assert_eq!(session.send(update(2), None, 2).0, 3);
        // Nothing pending: the Hello acknowledges the last seq.
        session.answer(3);
        let Frame::Hello { last_acked, .. } = session.hello() else {
            panic!("not a Hello");
        };
        assert_eq!(last_acked, Some(3));
    }

    proptest! {
        /// Bounded eviction never drops a reply at or above the
        /// un-acked watermark, as long as the un-acked span fits in the
        /// capacity — and duplicate-seq lookups are total (`get` hits)
        /// for every logged seq above the watermark.
        #[test]
        fn unacked_replies_survive_bounded_eviction(
            cap in 1usize..24,
            seqs in prop::collection::vec(1u64..2000, 1..200),
        ) {
            let mut log = ReplayLog::new(cap);
            let mut recorded: Vec<u64> = Vec::new();
            for (i, &seq) in seqs.iter().enumerate() {
                // Keep the un-acked span within capacity: ack everything
                // further back than `cap` records.
                if i >= cap {
                    let floor = recorded[i - cap];
                    log.set_acked(log.acked().max(floor));
                }
                log.record(seq, &bytes_for(seq));
                recorded.push(seq);
                prop_assert_eq!(log.forced_evictions(), 0);
                // Totality: every recorded seq above the watermark that
                // was recorded after the watermark rose must be
                // retrievable, byte-identical.
                let acked = log.acked();
                for &s in recorded.iter().rev().take(cap) {
                    if s > acked {
                        let got = log.get(s);
                        prop_assert!(got.is_some(), "seq {} missing (acked {})", s, acked);
                        prop_assert_eq!(got.unwrap(), bytes_for(s));
                    }
                }
            }
        }

        /// With no acks at all, the log degrades gracefully: it stays
        /// bounded, counts forced evictions, and `since` still returns
        /// seq-sorted results.
        #[test]
        fn overflow_without_acks_is_bounded_and_counted(
            cap in 1usize..16,
            n in 1u64..100,
        ) {
            let mut log = ReplayLog::new(cap);
            for seq in 1..=n {
                log.record(seq, &bytes_for(seq));
            }
            prop_assert!(log.len() <= cap);
            prop_assert_eq!(log.forced_evictions(), n.saturating_sub(cap as u64));
            let replay = log.since(0);
            let seqs: Vec<u64> = replay.iter().map(|(s, _)| *s).collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(seqs, sorted);
        }
    }
}
