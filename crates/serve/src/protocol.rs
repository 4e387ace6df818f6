//! The `fmml-serve` wire protocol: length-prefixed frames in one of two
//! negotiated codecs.
//!
//! Every frame on the wire is `u32` big-endian payload length followed by
//! exactly that many payload bytes — one [`Frame`] per payload. The
//! payload is either UTF-8 JSON (the default, serialized with the
//! workspace's vendored serde; externally tagged: unit variants are bare
//! strings (`"Stats"`), struct variants single-key objects
//! (`{"Hello":{...}}`)) or the compact binary "wire v2" codec
//! ([`WireCodec::Bin1`]): a [`BIN1_MARKER`] byte, a frame-tag byte, then
//! the variant's fields as little-endian scalars and length-prefixed
//! strings/vectors. `0xB1` can never start a JSON payload, so decoders
//! sniff the codec per frame; *which codec an encoder uses* is negotiated
//! in the handshake (`Hello.codecs` advertises, `Welcome.codec` picks,
//! both always JSON) and missing keys mean JSON — old peers are untouched.
//!
//! ```text
//! ┌──────────────┬──────────────────────────────────────────┐
//! │ len: u32 BE  │ payload: len bytes of JSON (one Frame)   │
//! └──────────────┴──────────────────────────────────────────┘
//! ┌──────────────┬──────┬─────┬───────────────────────────────┐
//! │ len: u32 BE  │ 0xB1 │ tag │ fields (LE scalars, u32-len   │
//! │              │      │     │ strings & vecs, u8 Options)   │
//! └──────────────┴──────┴─────┴───────────────────────────────┘
//! ```
//!
//! Hardening (streamed telemetry is exactly the input the fault harness
//! corrupts):
//!
//! * the length prefix is capped at [`MAX_FRAME_LEN`] — an oversized
//!   prefix is rejected *before* any allocation ([`WireError::Oversized`]);
//! * decode failures are typed [`WireError`]s, never panics;
//! * [`FrameReader`] tolerates read timeouts mid-frame (partial bytes are
//!   retained, the caller decides when a stall becomes a disconnect).

use fmml_core::streaming::IntervalUpdate;
use serde::{Deserialize, Serialize};
use std::io::{ErrorKind, Read, Write};

/// Default cap on a frame's JSON payload. A window of telemetry is a few
/// KB; 1 MiB leaves two orders of magnitude of headroom while bounding
/// what a hostile length prefix can make the server allocate. The cap is
/// per-reader configurable ([`FrameReader::with_max_len`],
/// `ServerConfig::max_frame_len`): router-to-backend links carry batched
/// interval replays during migration and run with a higher ceiling than
/// untrusted client edges.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Bytes of framing overhead per frame (the length prefix).
pub const HEADER_LEN: usize = 4;

/// One protocol message. Client→server: `Hello`, `Interval`, `Stats`,
/// `Bye`. Server→client: `Welcome`, `Ack`, `Imputed`, `Busy`, `Reject`,
/// `StatsReply`, `ByeAck`, `Error`.
///
/// Only unit and named-field variants are used (the vendored serde_derive
/// supports exactly that shape), so the encoding is stable and trivially
/// re-implementable by non-Rust clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Session handshake: which tenant this is and which ports it will
    /// stream, with the telemetry geometry (queues per port, fine bins
    /// per interval, intervals per sliding window).
    Hello {
        tenant: String,
        ports: Vec<usize>,
        queues: usize,
        interval_len: usize,
        window_intervals: usize,
        /// Resumption: the `resume_token` a previous `Welcome` handed out,
        /// to re-attach to that session's sliding windows and replay
        /// window after a disconnect. Pre-resume clients omit both keys
        /// (missing keys decode as `None` — compatible both ways, like
        /// `Interval.trace_id`).
        resume_token: Option<String>,
        /// Highest sequence number the client has already processed a
        /// reply for; on resume the server replays every retained reply
        /// with a larger seq.
        last_acked: Option<u64>,
        /// Wire codecs this client can decode, by label (`"json"`,
        /// `"bin1"`), in preference order. Pre-v2 clients omit the key
        /// (missing decodes as `None`), which the server reads as
        /// JSON-only. The `Hello` itself is always JSON.
        codecs: Option<Vec<String>>,
    },
    /// Handshake accepted; `deadline_ms` echoes the server's per-interval
    /// end-to-end budget.
    Welcome {
        session: u64,
        deadline_ms: u64,
        /// Token to present in a future `Hello` to resume this session
        /// after a disconnect (always sent by resume-capable servers).
        resume_token: Option<String>,
        /// On a resume attempt: `Some(true)` if the parked session was
        /// re-attached, `Some(false)` if the token was unknown/expired
        /// and the session is fresh. `None` from pre-resume servers.
        resumed: Option<bool>,
        /// When `resumed == Some(true)`: the highest interval seq the
        /// server ingested before the disconnect. Pending seqs above it
        /// never reached the server and must be re-sent; pending seqs at
        /// or below it will be answered by the replay that follows.
        resume_seq: Option<u64>,
        /// The codec the server picked from `Hello.codecs` for every
        /// frame after this `Welcome` (both directions). `None` (pre-v2
        /// servers) means JSON. The `Welcome` itself is always JSON.
        codec: Option<String>,
    },
    /// One coarse interval of one port. `seq` is the client's correlation
    /// id, echoed in the answer. `trace_id` optionally carries the
    /// client's span-tracing id so client- and server-side spans stitch
    /// into one trace; frames from older clients simply omit it (missing
    /// keys decode as `None`, unknown keys are ignored — compatible both
    /// ways).
    Interval {
        seq: u64,
        update: IntervalUpdate,
        trace_id: Option<u64>,
    },
    /// Interval accepted and buffered, but the sliding window is still
    /// warming up — no series yet.
    Ack { seq: u64, buffered: usize },
    /// The freshly imputed fine series of the newest interval, corrected
    /// through the CEM degradation ladder. `level` is the
    /// [`DegradationLevel`](fmml_fm::cem::DegradationLevel) label
    /// (`DegradationLevel::from_label` decodes it); `enforced` is `false`
    /// only when the measurements themselves were contradictory and had
    /// to be minimally relaxed.
    Imputed {
        seq: u64,
        port: usize,
        series: Vec<Vec<u32>>,
        level: String,
        enforced: bool,
        latency_us: u64,
        /// The trace under which the server recorded this interval's
        /// journey: the client's `Interval.trace_id` when one was sent,
        /// else a server-minted id (absent when tracing is off).
        trace_id: Option<u64>,
    },
    /// Admission control: the session's bounded queue is full; the
    /// interval was dropped, try again later.
    Busy { seq: u64, depth: usize },
    /// The interval was malformed (wrong port, mismatched shapes) and was
    /// not ingested. The session stays up.
    Reject { seq: u64, reason: String },
    /// Ask the server for its counters.
    Stats,
    /// Ask the server for a full introspection dump: every registered
    /// metric (counters, gauges, histogram quantiles p50/p90/p99/p999)
    /// plus recent trace summaries and a folded-stacks export. Answered
    /// with [`Frame::MetricsReply`]; allowed pre-handshake, like `Stats`.
    MetricsDump,
    /// The dump, as one JSON document (see [`fmml_obs::dump_json`] for
    /// the shape). Kept opaque at the protocol layer so the registry can
    /// grow fields without a wire change.
    MetricsReply { json: String },
    StatsReply {
        sessions: u64,
        active_sessions: u64,
        accepted: u64,
        rejected: u64,
        malformed: u64,
        replies: u64,
        batches: u64,
        deadline_misses: u64,
        violations: u64,
        slow_disconnects: u64,
    },
    /// Graceful goodbye. The sender promises to send nothing further;
    /// the server drains in-flight work and answers [`Frame::ByeAck`].
    Bye,
    /// Drain result for the session: `answered` replies were written, and
    /// `remaining` accepted intervals were still in flight when the
    /// server's drain budget expired. `remaining == 0` is a full drain;
    /// `remaining > 0` means the drain timed out and that many replies
    /// were dropped — clients can distinguish the two instead of trusting
    /// an unconditional "all answered".
    ByeAck { answered: u64, remaining: u64 },
    /// Fatal session error (bad handshake, unparseable frame, shutdown).
    Error { code: String, message: String },
}

impl Frame {
    /// Short tag for logging.
    pub fn tag(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::Welcome { .. } => "Welcome",
            Frame::Interval { .. } => "Interval",
            Frame::Ack { .. } => "Ack",
            Frame::Imputed { .. } => "Imputed",
            Frame::Busy { .. } => "Busy",
            Frame::Reject { .. } => "Reject",
            Frame::Stats => "Stats",
            Frame::MetricsDump => "MetricsDump",
            Frame::MetricsReply { .. } => "MetricsReply",
            Frame::StatsReply { .. } => "StatsReply",
            Frame::Bye => "Bye",
            Frame::ByeAck { .. } => "ByeAck",
            Frame::Error { .. } => "Error",
        }
    }
}

/// Typed decode/transport failures. Everything a hostile or chaotic peer
/// can put on the wire lands here — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Peer closed the connection at a frame boundary.
    Closed,
    /// Peer closed the connection mid-frame.
    Truncated { expected: usize, got: usize },
    /// Length prefix exceeds the reader's frame cap (default
    /// [`MAX_FRAME_LEN`]); rejected before allocating.
    Oversized { len: usize },
    /// Payload was not valid UTF-8 JSON for a [`Frame`].
    Malformed(String),
    /// A blocking read/write hit the socket's configured timeout. On the
    /// write path this is the slow-reader signal — matched structurally
    /// (never by message text) by the server's disconnect accounting.
    Timeout,
    /// Underlying transport error.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Closed => write!(f, "connection closed"),
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            WireError::Oversized { len } => {
                write!(f, "oversized frame: length prefix {len} exceeds the cap")
            }
            WireError::Malformed(e) => write!(f, "malformed frame: {e}"),
            WireError::Timeout => write!(f, "socket operation timed out"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A payload codec. Decoders accept both unconditionally (the first
/// payload byte disambiguates); the codec only governs what an *encoder*
/// emits, and that choice is fixed per session lineage by the handshake
/// so pre-encoded replay bytes stay valid across resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// Length-prefixed UTF-8 JSON — the v1 format and the default.
    #[default]
    Json,
    /// Wire v2: marker byte + frame tag + little-endian fields.
    Bin1,
}

impl WireCodec {
    /// The label used on the wire (`Hello.codecs` / `Welcome.codec`) and
    /// in `--wire` flags.
    pub fn label(self) -> &'static str {
        match self {
            WireCodec::Json => "json",
            WireCodec::Bin1 => "bin1",
        }
    }

    /// Parse a codec label; unknown labels are `None` (callers treat
    /// that as "stay on JSON", never an error — forward compatibility).
    pub fn parse(s: &str) -> Option<WireCodec> {
        match s {
            "json" => Some(WireCodec::Json),
            "bin1" => Some(WireCodec::Bin1),
            _ => None,
        }
    }

    /// The codecs a v2 peer advertises in `Hello.codecs`.
    pub fn advertise() -> Vec<String> {
        vec!["json".into(), "bin1".into()]
    }

    /// Server-side pick: the server's preferred codec if the client
    /// advertised it, else JSON. `None` (a pre-v2 `Hello`) always
    /// negotiates JSON.
    pub fn negotiate(prefer: WireCodec, advertised: Option<&[String]>) -> WireCodec {
        match (prefer, advertised) {
            (WireCodec::Bin1, Some(list)) if list.iter().any(|c| c == "bin1") => WireCodec::Bin1,
            _ => WireCodec::Json,
        }
    }

    /// The codec a given payload is encoded in (by sniffing the marker
    /// byte; JSON payloads start with `{` or `"`, never `0xB1`).
    pub fn of_payload(payload: &[u8]) -> WireCodec {
        if payload.first() == Some(&BIN1_MARKER) {
            WireCodec::Bin1
        } else {
            WireCodec::Json
        }
    }
}

impl std::fmt::Display for WireCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// First payload byte of every wire-v2 frame. JSON payloads are UTF-8
/// text starting `{` or `"`, so this byte (invalid as a UTF-8 leading
/// byte) is unambiguous.
pub const BIN1_MARKER: u8 = 0xB1;

// Wire-v2 frame tags, in `Frame` declaration order.
const TAG_HELLO: u8 = 0;
const TAG_WELCOME: u8 = 1;
const TAG_INTERVAL: u8 = 2;
const TAG_ACK: u8 = 3;
const TAG_IMPUTED: u8 = 4;
const TAG_BUSY: u8 = 5;
const TAG_REJECT: u8 = 6;
const TAG_STATS: u8 = 7;
const TAG_METRICS_DUMP: u8 = 8;
const TAG_METRICS_REPLY: u8 = 9;
const TAG_STATS_REPLY: u8 = 10;
const TAG_BYE: u8 = 11;
const TAG_BYE_ACK: u8 = 12;
const TAG_ERROR: u8 = 13;

/// Encode one frame to its on-wire bytes (header + JSON payload), capped
/// at [`MAX_FRAME_LEN`].
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    encode_frame_capped(frame, MAX_FRAME_LEN)
}

/// Encode one frame as JSON with an explicit payload cap (router links
/// that carry batched replays raise it; the wire format itself tops out
/// at `u32`).
pub fn encode_frame_capped(frame: &Frame, max_len: usize) -> Result<Vec<u8>, WireError> {
    encode_frame_with(frame, WireCodec::Json, max_len)
}

/// Encode one frame in an explicit codec with an explicit payload cap —
/// the primitive everything else lowers onto.
pub fn encode_frame_with(
    frame: &Frame,
    codec: WireCodec,
    max_len: usize,
) -> Result<Vec<u8>, WireError> {
    let payload = match codec {
        WireCodec::Json => serde_json::to_string(frame)
            .map_err(|e| WireError::Malformed(e.to_string()))?
            .into_bytes(),
        WireCodec::Bin1 => encode_bin1(frame),
    };
    // A field longer than u32::MAX would wrap its inline length prefix,
    // but such a payload also exceeds every legal cap, so it is rejected
    // here before any wrapped length can reach the wire.
    if payload.len() > max_len.min(u32::MAX as usize) {
        return Err(WireError::Oversized { len: payload.len() });
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Decode one frame from the front of `buf` (cap [`MAX_FRAME_LEN`]).
/// Returns the frame and the number of bytes consumed, or `Ok(None)` if
/// `buf` does not yet hold a complete frame.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    decode_frame_capped(buf, MAX_FRAME_LEN)
}

/// Decode with an explicit cap on the announced payload length. The cap
/// is enforced against the *length prefix*, before any payload
/// allocation happens — that property is what makes it safe to expose as
/// a config knob.
pub fn decode_frame_capped(
    buf: &[u8],
    max_len: usize,
) -> Result<Option<(Frame, usize)>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > max_len {
        return Err(WireError::Oversized { len });
    }
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    let frame = decode_payload(payload)?;
    Ok(Some((frame, HEADER_LEN + len)))
}

/// Decode one complete payload, sniffing the codec from its first byte.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    match WireCodec::of_payload(payload) {
        WireCodec::Bin1 => decode_bin1(payload),
        WireCodec::Json => {
            let text = std::str::from_utf8(payload)
                .map_err(|e| WireError::Malformed(format!("utf-8: {e}")))?;
            serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
        }
    }
}

/// Routing metadata readable from a wire-v2 payload without decoding the
/// body: the frame tag and, for seq-carrying frames, the correlation seq
/// at its fixed offset. `None` for JSON payloads (callers fall back to a
/// full decode) and for v2 frames that carry no seq.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Short tag name, same strings as [`Frame::tag`].
    pub tag: &'static str,
    /// The frame's correlation seq.
    pub seq: u64,
}

/// Cheap fixed-offset peek at a wire-v2 payload; see [`FrameMeta`]. Every
/// seq-carrying v2 variant (`Interval`, `Ack`, `Imputed`, `Busy`,
/// `Reject`) lays its seq out at bytes `[2..10]` by construction.
pub fn decode_frame_meta(payload: &[u8]) -> Option<FrameMeta> {
    if payload.len() < 10 || payload[0] != BIN1_MARKER {
        return None;
    }
    let tag = match payload[1] {
        TAG_INTERVAL => "Interval",
        TAG_ACK => "Ack",
        TAG_IMPUTED => "Imputed",
        TAG_BUSY => "Busy",
        TAG_REJECT => "Reject",
        _ => return None,
    };
    let seq = u64::from_le_bytes(payload[2..10].try_into().unwrap());
    Some(FrameMeta { tag, seq })
}

// ---------------------------------------------------------------------
// Wire v2 (bin1) payload codec.
//
// Layout: BIN1_MARKER, tag byte, then the variant's fields in struct
// declaration order. Scalars are little-endian (`usize` travels as u64,
// bool as one 0/1 byte); strings and vectors carry a u32 element count;
// `Option`s a 0/1 presence byte. The decoder bounds-checks every count
// against the bytes actually present before allocating, and requires the
// body to consume the payload exactly — trailing bytes are malformed,
// mirroring the JSON parser's strictness.
// ---------------------------------------------------------------------

struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    fn new(tag: u8) -> BinWriter {
        let mut buf = Vec::with_capacity(64);
        buf.push(BIN1_MARKER);
        buf.push(tag);
        BinWriter { buf }
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn boolean(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn vec_u32(&mut self, v: &[u32]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.u32(x);
        }
    }
    fn vec_usize(&mut self, v: &[usize]) {
        self.u32(v.len() as u32);
        for &x in v {
            self.usize(x);
        }
    }
    fn opt<T, F: FnMut(&mut Self, &T)>(&mut self, v: &Option<T>, mut f: F) {
        match v {
            None => self.buf.push(0),
            Some(x) => {
                self.buf.push(1);
                f(self, x);
            }
        }
    }
}

struct BinReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Malformed(format!(
                "bin1: body truncated ({} bytes left, {n} needed)",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn usize_(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?)
            .map_err(|_| WireError::Malformed("bin1: usize overflow".into()))
    }
    fn boolean(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed(format!("bin1: bad bool byte {b}"))),
        }
    }
    /// An element count, bounds-checked so a hostile count can never make
    /// us allocate more than the bytes actually on the wire justify.
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_elem_bytes) {
            Some(bytes) if bytes <= self.remaining() => Ok(n),
            _ => Err(WireError::Malformed(format!(
                "bin1: count {n} exceeds remaining {} bytes",
                self.remaining()
            ))),
        }
    }
    fn str_(&mut self) -> Result<String, WireError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| WireError::Malformed(format!("bin1: utf-8: {e}")))
    }
    fn vec_u32(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.count(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Ok(v)
    }
    fn vec_usize(&mut self) -> Result<Vec<usize>, WireError> {
        let n = self.count(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.usize_()?);
        }
        Ok(v)
    }
    fn vec_vec_u32(&mut self) -> Result<Vec<Vec<u32>>, WireError> {
        let n = self.count(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.vec_u32()?);
        }
        Ok(v)
    }
    fn vec_str(&mut self) -> Result<Vec<String>, WireError> {
        let n = self.count(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.str_()?);
        }
        Ok(v)
    }
    fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(WireError::Malformed(format!("bin1: bad option byte {b}"))),
        }
    }
    fn done(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "bin1: {} trailing bytes after body",
                self.remaining()
            )))
        }
    }
}

fn encode_bin1(frame: &Frame) -> Vec<u8> {
    match frame {
        Frame::Hello {
            tenant,
            ports,
            queues,
            interval_len,
            window_intervals,
            resume_token,
            last_acked,
            codecs,
        } => {
            let mut w = BinWriter::new(TAG_HELLO);
            w.str(tenant);
            w.vec_usize(ports);
            w.usize(*queues);
            w.usize(*interval_len);
            w.usize(*window_intervals);
            w.opt(resume_token, |w, s| w.str(s));
            w.opt(last_acked, |w, &v| w.u64(v));
            w.opt(codecs, |w, v| {
                w.u32(v.len() as u32);
                for s in v {
                    w.str(s);
                }
            });
            w.buf
        }
        Frame::Welcome {
            session,
            deadline_ms,
            resume_token,
            resumed,
            resume_seq,
            codec,
        } => {
            let mut w = BinWriter::new(TAG_WELCOME);
            w.u64(*session);
            w.u64(*deadline_ms);
            w.opt(resume_token, |w, s| w.str(s));
            w.opt(resumed, |w, &v| w.boolean(v));
            w.opt(resume_seq, |w, &v| w.u64(v));
            w.opt(codec, |w, s| w.str(s));
            w.buf
        }
        Frame::Interval {
            seq,
            update,
            trace_id,
        } => {
            let mut w = BinWriter::new(TAG_INTERVAL);
            w.u64(*seq);
            w.usize(update.port);
            w.vec_u32(&update.samples);
            w.vec_u32(&update.maxes);
            w.u32(update.sent);
            w.u32(update.dropped);
            w.u32(update.received);
            w.opt(trace_id, |w, &v| w.u64(v));
            w.buf
        }
        Frame::Ack { seq, buffered } => {
            let mut w = BinWriter::new(TAG_ACK);
            w.u64(*seq);
            w.usize(*buffered);
            w.buf
        }
        Frame::Imputed {
            seq,
            port,
            series,
            level,
            enforced,
            latency_us,
            trace_id,
        } => {
            let mut w = BinWriter::new(TAG_IMPUTED);
            w.u64(*seq);
            w.usize(*port);
            w.u32(series.len() as u32);
            for row in series {
                w.vec_u32(row);
            }
            w.str(level);
            w.boolean(*enforced);
            w.u64(*latency_us);
            w.opt(trace_id, |w, &v| w.u64(v));
            w.buf
        }
        Frame::Busy { seq, depth } => {
            let mut w = BinWriter::new(TAG_BUSY);
            w.u64(*seq);
            w.usize(*depth);
            w.buf
        }
        Frame::Reject { seq, reason } => {
            let mut w = BinWriter::new(TAG_REJECT);
            w.u64(*seq);
            w.str(reason);
            w.buf
        }
        Frame::Stats => BinWriter::new(TAG_STATS).buf,
        Frame::MetricsDump => BinWriter::new(TAG_METRICS_DUMP).buf,
        Frame::MetricsReply { json } => {
            let mut w = BinWriter::new(TAG_METRICS_REPLY);
            w.str(json);
            w.buf
        }
        Frame::StatsReply {
            sessions,
            active_sessions,
            accepted,
            rejected,
            malformed,
            replies,
            batches,
            deadline_misses,
            violations,
            slow_disconnects,
        } => {
            let mut w = BinWriter::new(TAG_STATS_REPLY);
            for v in [
                sessions,
                active_sessions,
                accepted,
                rejected,
                malformed,
                replies,
                batches,
                deadline_misses,
                violations,
                slow_disconnects,
            ] {
                w.u64(*v);
            }
            w.buf
        }
        Frame::Bye => BinWriter::new(TAG_BYE).buf,
        Frame::ByeAck {
            answered,
            remaining,
        } => {
            let mut w = BinWriter::new(TAG_BYE_ACK);
            w.u64(*answered);
            w.u64(*remaining);
            w.buf
        }
        Frame::Error { code, message } => {
            let mut w = BinWriter::new(TAG_ERROR);
            w.str(code);
            w.str(message);
            w.buf
        }
    }
}

fn decode_bin1(payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = BinReader {
        buf: payload,
        pos: 0,
    };
    let marker = r.u8()?;
    debug_assert_eq!(marker, BIN1_MARKER);
    let tag = r.u8()?;
    let frame = match tag {
        TAG_HELLO => Frame::Hello {
            tenant: r.str_()?,
            ports: r.vec_usize()?,
            queues: r.usize_()?,
            interval_len: r.usize_()?,
            window_intervals: r.usize_()?,
            resume_token: r.opt(|r| r.str_())?,
            last_acked: r.opt(|r| r.u64())?,
            codecs: r.opt(|r| r.vec_str())?,
        },
        TAG_WELCOME => Frame::Welcome {
            session: r.u64()?,
            deadline_ms: r.u64()?,
            resume_token: r.opt(|r| r.str_())?,
            resumed: r.opt(|r| r.boolean())?,
            resume_seq: r.opt(|r| r.u64())?,
            codec: r.opt(|r| r.str_())?,
        },
        TAG_INTERVAL => Frame::Interval {
            seq: r.u64()?,
            update: IntervalUpdate {
                port: r.usize_()?,
                samples: r.vec_u32()?,
                maxes: r.vec_u32()?,
                sent: r.u32()?,
                dropped: r.u32()?,
                received: r.u32()?,
            },
            trace_id: r.opt(|r| r.u64())?,
        },
        TAG_ACK => Frame::Ack {
            seq: r.u64()?,
            buffered: r.usize_()?,
        },
        TAG_IMPUTED => Frame::Imputed {
            seq: r.u64()?,
            port: r.usize_()?,
            series: r.vec_vec_u32()?,
            level: r.str_()?,
            enforced: r.boolean()?,
            latency_us: r.u64()?,
            trace_id: r.opt(|r| r.u64())?,
        },
        TAG_BUSY => Frame::Busy {
            seq: r.u64()?,
            depth: r.usize_()?,
        },
        TAG_REJECT => Frame::Reject {
            seq: r.u64()?,
            reason: r.str_()?,
        },
        TAG_STATS => Frame::Stats,
        TAG_METRICS_DUMP => Frame::MetricsDump,
        TAG_METRICS_REPLY => Frame::MetricsReply { json: r.str_()? },
        TAG_STATS_REPLY => Frame::StatsReply {
            sessions: r.u64()?,
            active_sessions: r.u64()?,
            accepted: r.u64()?,
            rejected: r.u64()?,
            malformed: r.u64()?,
            replies: r.u64()?,
            batches: r.u64()?,
            deadline_misses: r.u64()?,
            violations: r.u64()?,
            slow_disconnects: r.u64()?,
        },
        TAG_BYE => Frame::Bye,
        TAG_BYE_ACK => Frame::ByeAck {
            answered: r.u64()?,
            remaining: r.u64()?,
        },
        TAG_ERROR => Frame::Error {
            code: r.str_()?,
            message: r.str_()?,
        },
        t => {
            return Err(WireError::Malformed(format!("bin1: unknown frame tag {t}")));
        }
    };
    r.done()?;
    Ok(frame)
}

/// Serialize and write one frame (JSON, default cap).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    let bytes = encode_frame(frame)?;
    write_bytes(w, &bytes)
}

/// Serialize and write one frame in an explicit codec (default cap).
pub fn write_frame_with<W: Write>(
    w: &mut W,
    frame: &Frame,
    codec: WireCodec,
) -> Result<(), WireError> {
    let bytes = encode_frame_with(frame, codec, MAX_FRAME_LEN)?;
    write_bytes(w, &bytes)
}

/// Write pre-encoded frame bytes (from [`encode_frame`]). Lets callers
/// time the encode and write stages separately without re-implementing
/// the io-error mapping.
pub fn write_bytes<W: Write>(w: &mut W, bytes: &[u8]) -> Result<(), WireError> {
    w.write_all(bytes).map_err(io_to_wire)?;
    w.flush().map_err(io_to_wire)
}

fn io_to_wire(e: std::io::Error) -> WireError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => WireError::Timeout,
        ErrorKind::UnexpectedEof | ErrorKind::BrokenPipe | ErrorKind::ConnectionReset => {
            WireError::Closed
        }
        _ => WireError::Io(e.to_string()),
    }
}

/// Incremental frame decoder over any [`Read`].
///
/// Read timeouts are *non-destructive*: [`poll_frame`] returns
/// `Ok(None)` and keeps any partial bytes buffered, so a server thread
/// can time out, check its shutdown flag, and resume. The caller tracks
/// how many consecutive polls left a frame half-finished and decides
/// when a stalled peer becomes a disconnect.
///
/// [`poll_frame`]: FrameReader::poll_frame
pub struct FrameReader<R: Read> {
    inner: R,
    buf: Vec<u8>,
    max_len: usize,
    last_decode_ns: u64,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader::with_max_len(inner, MAX_FRAME_LEN)
    }

    /// A reader with an explicit frame cap. Client-facing edges keep the
    /// [`MAX_FRAME_LEN`] default; trusted router↔backend links (batched
    /// interval replays during migration) raise it via
    /// `ServerConfig::max_frame_len`.
    pub fn with_max_len(inner: R, max_len: usize) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::with_capacity(4096),
            max_len,
            last_decode_ns: 0,
        }
    }

    /// The configured frame cap.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// CPU time the most recent successful [`poll_frame`] spent parsing
    /// its frame (0 when span tracing is off — the clock is only read
    /// when someone will attribute the stage). Socket wait time is never
    /// included.
    pub fn last_decode_ns(&self) -> u64 {
        self.last_decode_ns
    }

    /// Bytes buffered towards the next frame (non-zero after a mid-frame
    /// timeout — the stall signal).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Whether a complete frame is already buffered, so the next
    /// [`poll_frame`](FrameReader::poll_frame) returns without a read. A
    /// length prefix over the cap never completes: `false`, and the next
    /// poll fails on it.
    pub fn buffered_frame(&self) -> bool {
        let len = expected_len(&self.buf);
        len > 0 && len - HEADER_LEN <= self.max_len && self.buf.len() >= len
    }

    /// Try to read one frame. `Ok(None)` means the read timed out before
    /// a complete frame arrived (retry later); errors are terminal for
    /// the connection except as the caller decides.
    pub fn poll_frame(&mut self) -> Result<Option<Frame>, WireError> {
        loop {
            let t0 = fmml_obs::trace::enabled().then(std::time::Instant::now);
            if let Some((frame, consumed)) = decode_frame_capped(&self.buf, self.max_len)? {
                self.last_decode_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                self.buf.drain(..consumed);
                return Ok(Some(frame));
            }
            if !self.fill()? {
                return Ok(None);
            }
        }
    }

    /// Like [`poll_frame`](FrameReader::poll_frame), but hands back the
    /// complete frame's *wire bytes* (header included) without decoding
    /// the body. The cap is enforced against the length prefix exactly as
    /// in `poll_frame`. This is the router pass-through primitive: a
    /// forwarder can peek routing metadata ([`RawFrame::meta`]) and ship
    /// the bytes verbatim, decoding in full only when it must transcode.
    pub fn poll_frame_raw(&mut self) -> Result<Option<RawFrame>, WireError> {
        loop {
            if self.buf.len() >= HEADER_LEN {
                let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
                    as usize;
                if len > self.max_len {
                    return Err(WireError::Oversized { len });
                }
                if self.buf.len() >= HEADER_LEN + len {
                    let bytes: Vec<u8> = self.buf.drain(..HEADER_LEN + len).collect();
                    return Ok(Some(RawFrame { bytes }));
                }
            }
            if !self.fill()? {
                return Ok(None);
            }
        }
    }

    /// One transport read into the buffer: `Ok(true)` when bytes arrived,
    /// `Ok(false)` on a read timeout with nothing new.
    fn fill(&mut self) -> Result<bool, WireError> {
        loop {
            let mut scratch = [0u8; 4096];
            match self.inner.read(&mut scratch) {
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        WireError::Closed
                    } else {
                        let expected = expected_len(&self.buf);
                        WireError::Truncated {
                            expected,
                            got: self.buf.len(),
                        }
                    });
                }
                Ok(n) => {
                    self.buf.extend_from_slice(&scratch[..n]);
                    return Ok(true);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(false);
                }
                Err(e) => return Err(io_to_wire(e)),
            }
        }
    }

    /// Block until a full frame arrives. If the underlying socket has a
    /// read timeout configured, one expiry surfaces as
    /// [`WireError::Timeout`] — it does NOT spin retrying `poll_frame`,
    /// so a caller that wants a bounded wait sets the socket timeout and
    /// gets a typed error instead of a 100%-CPU loop.
    pub fn read_frame(&mut self) -> Result<Frame, WireError> {
        match self.poll_frame()? {
            Some(f) => Ok(f),
            None => Err(WireError::Timeout),
        }
    }
}

/// One complete frame as raised off the wire: header plus payload,
/// bitwise as received. See [`FrameReader::poll_frame_raw`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFrame {
    bytes: Vec<u8>,
}

impl RawFrame {
    /// The full wire bytes (length prefix included) — what a pass-through
    /// forwarder writes to the next hop verbatim.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume into the wire bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// The payload (header stripped).
    pub fn payload(&self) -> &[u8] {
        &self.bytes[HEADER_LEN..]
    }

    /// Which codec the payload is encoded in.
    pub fn codec(&self) -> WireCodec {
        WireCodec::of_payload(self.payload())
    }

    /// Cheap routing metadata (wire-v2 payloads only; see
    /// [`decode_frame_meta`]).
    pub fn meta(&self) -> Option<FrameMeta> {
        decode_frame_meta(self.payload())
    }

    /// Full decode of the payload (either codec). The frame already
    /// passed the reader's cap, so no further length check applies.
    pub fn decode(&self) -> Result<Frame, WireError> {
        decode_payload(self.payload())
    }
}

/// Total on-wire length the buffered prefix announces (for Truncated
/// diagnostics); 0 if the header itself is incomplete.
fn expected_len(buf: &[u8]) -> usize {
    if buf.len() < HEADER_LEN {
        return 0;
    }
    HEADER_LEN + u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_update() -> IntervalUpdate {
        IntervalUpdate {
            port: 3,
            samples: vec![1, 2],
            maxes: vec![4, 5],
            sent: 10,
            dropped: 0,
            received: 9,
        }
    }

    fn every_variant() -> Vec<Frame> {
        vec![
            Frame::Hello {
                tenant: "t-0".into(),
                ports: vec![0, 3],
                queues: 2,
                interval_len: 10,
                window_intervals: 6,
                resume_token: None,
                last_acked: None,
                codecs: None,
            },
            Frame::Hello {
                tenant: "t-0".into(),
                ports: vec![0, 3],
                queues: 2,
                interval_len: 10,
                window_intervals: 6,
                resume_token: Some("tok-5c4f".into()),
                last_acked: Some(17),
                codecs: Some(WireCodec::advertise()),
            },
            Frame::Welcome {
                session: 7,
                deadline_ms: 50,
                resume_token: Some("tok-5c4f".into()),
                resumed: Some(true),
                resume_seq: Some(21),
                codec: Some("bin1".into()),
            },
            Frame::Welcome {
                session: 8,
                deadline_ms: 50,
                resume_token: None,
                resumed: None,
                resume_seq: None,
                codec: None,
            },
            Frame::Interval {
                seq: 42,
                update: sample_update(),
                trace_id: Some(0x7001),
            },
            Frame::Interval {
                seq: 43,
                update: sample_update(),
                trace_id: None,
            },
            Frame::Ack {
                seq: 42,
                buffered: 3,
            },
            Frame::Imputed {
                seq: 42,
                port: 3,
                series: vec![vec![1, 2, 3], vec![0, 0, 1]],
                level: "full".into(),
                enforced: true,
                latency_us: 1234,
                trace_id: Some(9),
            },
            Frame::Busy { seq: 43, depth: 64 },
            Frame::Reject {
                seq: 44,
                reason: "queue shape mismatch".into(),
            },
            Frame::Stats,
            Frame::MetricsDump,
            Frame::MetricsReply {
                json: "{\"metrics\":{},\"trace\":{}}".into(),
            },
            Frame::StatsReply {
                sessions: 1,
                active_sessions: 1,
                accepted: 10,
                rejected: 2,
                malformed: 1,
                replies: 8,
                batches: 4,
                deadline_misses: 0,
                violations: 0,
                slow_disconnects: 0,
            },
            Frame::Bye,
            Frame::ByeAck {
                answered: 8,
                remaining: 0,
            },
            Frame::Error {
                code: "bad_handshake".into(),
                message: "expected Hello".into(),
            },
        ]
    }

    #[test]
    fn round_trips_every_variant() {
        for f in every_variant() {
            let bytes = encode_frame(&f).unwrap();
            let (back, consumed) = decode_frame(&bytes).unwrap().expect("complete");
            assert_eq!(consumed, bytes.len());
            assert_eq!(back, f, "round-trip mismatch for {}", f.tag());
        }
    }

    #[test]
    fn bin1_round_trips_every_variant() {
        for f in every_variant() {
            let bytes = encode_frame_with(&f, WireCodec::Bin1, MAX_FRAME_LEN).unwrap();
            assert_eq!(bytes[HEADER_LEN], BIN1_MARKER, "{}", f.tag());
            let (back, consumed) = decode_frame(&bytes).unwrap().expect("complete");
            assert_eq!(consumed, bytes.len());
            assert_eq!(back, f, "bin1 round-trip mismatch for {}", f.tag());
        }
    }

    #[test]
    fn bin1_is_smaller_on_hot_frames() {
        // Realistic telemetry magnitudes (queue depths / packet counts in
        // the thousands): ≥5 JSON chars per value vs 4 bytes binary.
        let f = Frame::Imputed {
            seq: 42,
            port: 3,
            series: vec![vec![48_271; 64]; 8],
            level: "full".into(),
            enforced: true,
            latency_us: 1234,
            trace_id: Some(9),
        };
        let json = encode_frame(&f).unwrap();
        let bin = encode_frame_with(&f, WireCodec::Bin1, MAX_FRAME_LEN).unwrap();
        assert!(
            bin.len() < json.len(),
            "bin1 ({}) not smaller than json ({})",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn bin1_meta_reads_tag_and_seq_without_decoding() {
        let frames = [
            (
                Frame::Interval {
                    seq: 0xdead_beef_0042,
                    update: sample_update(),
                    trace_id: Some(7),
                },
                "Interval",
            ),
            (
                Frame::Ack {
                    seq: 1,
                    buffered: 2,
                },
                "Ack",
            ),
            (
                Frame::Imputed {
                    seq: u64::MAX,
                    port: 0,
                    series: vec![],
                    level: "full".into(),
                    enforced: false,
                    latency_us: 0,
                    trace_id: None,
                },
                "Imputed",
            ),
            (Frame::Busy { seq: 9, depth: 1 }, "Busy"),
            (
                Frame::Reject {
                    seq: 3,
                    reason: "r".into(),
                },
                "Reject",
            ),
        ];
        for (f, tag) in frames {
            let bytes = encode_frame_with(&f, WireCodec::Bin1, MAX_FRAME_LEN).unwrap();
            let meta = decode_frame_meta(&bytes[HEADER_LEN..]).expect("meta");
            assert_eq!(meta.tag, tag);
            let Some(seq) = frame_seq(&f) else { panic!() };
            assert_eq!(meta.seq, seq);
        }
        // JSON payloads and seq-less v2 frames report no metadata.
        let json = encode_frame(&Frame::Bye).unwrap();
        assert_eq!(decode_frame_meta(&json[HEADER_LEN..]), None);
        let bye = encode_frame_with(&Frame::Bye, WireCodec::Bin1, MAX_FRAME_LEN).unwrap();
        assert_eq!(decode_frame_meta(&bye[HEADER_LEN..]), None);
    }

    fn frame_seq(f: &Frame) -> Option<u64> {
        match f {
            Frame::Interval { seq, .. }
            | Frame::Ack { seq, .. }
            | Frame::Imputed { seq, .. }
            | Frame::Busy { seq, .. }
            | Frame::Reject { seq, .. } => Some(*seq),
            _ => None,
        }
    }

    #[test]
    fn bin1_garbage_and_truncation_are_malformed_not_panic() {
        // Unknown tag.
        let payload = [BIN1_MARKER, 0x77];
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&payload);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
        // Truncated body: an Ack whose payload is cut mid-field (the
        // *wire* frame is complete — the length prefix matches — so the
        // decoder must flag the short body, not wait for more bytes).
        let full = encode_frame_with(
            &Frame::Ack {
                seq: 5,
                buffered: 1,
            },
            WireCodec::Bin1,
            MAX_FRAME_LEN,
        )
        .unwrap();
        let body = &full[HEADER_LEN..full.len() - 3];
        let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(body);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
        // Trailing bytes after a complete body.
        let mut body = full[HEADER_LEN..].to_vec();
        body.push(0);
        let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&body);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
        // A hostile element count never allocates past the wire bytes.
        let mut body = vec![BIN1_MARKER, TAG_IMPUTED];
        body.extend_from_slice(&5u64.to_le_bytes()); // seq
        body.extend_from_slice(&0u64.to_le_bytes()); // port
        body.extend_from_slice(&u32::MAX.to_le_bytes()); // series count
        let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&body);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn bin1_oversized_respects_encode_cap() {
        let huge = Frame::MetricsReply {
            json: "x".repeat(MAX_FRAME_LEN + 1),
        };
        assert!(matches!(
            encode_frame_with(&huge, WireCodec::Bin1, MAX_FRAME_LEN),
            Err(WireError::Oversized { .. })
        ));
        let ok = encode_frame_with(&huge, WireCodec::Bin1, 2 * MAX_FRAME_LEN).unwrap();
        let mut r = FrameReader::with_max_len(&ok[..], 2 * MAX_FRAME_LEN);
        assert_eq!(r.read_frame().unwrap(), huge);
    }

    #[test]
    fn negotiate_picks_bin1_only_when_both_sides_do() {
        let adv = WireCodec::advertise();
        assert_eq!(
            WireCodec::negotiate(WireCodec::Bin1, Some(&adv)),
            WireCodec::Bin1
        );
        // Old client: no codecs key at all.
        assert_eq!(WireCodec::negotiate(WireCodec::Bin1, None), WireCodec::Json);
        // New client, JSON-preferring server.
        assert_eq!(
            WireCodec::negotiate(WireCodec::Json, Some(&adv)),
            WireCodec::Json
        );
        // Client that only speaks future codecs we don't know.
        let exotic = vec!["bin9".to_string()];
        assert_eq!(
            WireCodec::negotiate(WireCodec::Bin1, Some(&exotic)),
            WireCodec::Json
        );
        assert_eq!(WireCodec::parse("bin1"), Some(WireCodec::Bin1));
        assert_eq!(WireCodec::parse("json"), Some(WireCodec::Json));
        assert_eq!(WireCodec::parse("bin9"), None);
    }

    #[test]
    fn raw_frames_pass_through_bitwise() {
        let mut stream = Vec::new();
        let a = encode_frame_with(
            &Frame::Imputed {
                seq: 4,
                port: 1,
                series: vec![vec![1, 2]],
                level: "full".into(),
                enforced: true,
                latency_us: 10,
                trace_id: None,
            },
            WireCodec::Bin1,
            MAX_FRAME_LEN,
        )
        .unwrap();
        let b = encode_frame(&Frame::Ack {
            seq: 5,
            buffered: 0,
        })
        .unwrap();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let mut r = FrameReader::new(&stream[..]);
        let ra = r.poll_frame_raw().unwrap().expect("first frame");
        assert_eq!(ra.bytes(), &a[..]);
        assert_eq!(ra.codec(), WireCodec::Bin1);
        assert_eq!(ra.meta().unwrap().seq, 4);
        assert!(matches!(
            ra.decode().unwrap(),
            Frame::Imputed { seq: 4, .. }
        ));
        let rb = r.poll_frame_raw().unwrap().expect("second frame");
        assert_eq!(rb.bytes(), &b[..]);
        assert_eq!(rb.codec(), WireCodec::Json);
        assert_eq!(rb.meta(), None);
        assert!(matches!(rb.decode().unwrap(), Frame::Ack { seq: 5, .. }));
        assert_eq!(r.poll_frame_raw().unwrap_err(), WireError::Closed);
    }

    #[test]
    fn read_frame_surfaces_timeout_instead_of_spinning() {
        // A Read impl that reports WouldBlock forever: with the old
        // spin-retry read_frame this test would hang at 100% CPU.
        struct AlwaysBlocked;
        impl Read for AlwaysBlocked {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(ErrorKind::WouldBlock, "timed out"))
            }
        }
        let mut r = FrameReader::new(AlwaysBlocked);
        assert_eq!(r.read_frame(), Err(WireError::Timeout));
    }

    #[test]
    fn frames_without_trace_id_still_decode() {
        // A pre-tracing client sends Interval frames with no trace_id
        // key at all; decode must yield `None`, not an error. Built by
        // hand so this keeps failing if the encoder ever starts
        // emitting the key unconditionally on the old layout.
        let json = "{\"Interval\":{\"seq\":5,\"update\":{\"port\":3,\
                    \"samples\":[1,2],\"maxes\":[4,5],\"sent\":10,\
                    \"dropped\":0,\"received\":9}}}";
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(json.len() as u32).to_be_bytes());
        bytes.extend_from_slice(json.as_bytes());
        let (frame, _) = decode_frame(&bytes).unwrap().expect("complete");
        assert_eq!(
            frame,
            Frame::Interval {
                seq: 5,
                update: sample_update(),
                trace_id: None,
            }
        );
        // And symmetrically for the reply direction.
        let json = "{\"Imputed\":{\"seq\":5,\"port\":3,\"series\":[[1]],\
                    \"level\":\"full\",\"enforced\":true,\"latency_us\":7}}";
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(json.len() as u32).to_be_bytes());
        bytes.extend_from_slice(json.as_bytes());
        let (frame, _) = decode_frame(&bytes).unwrap().expect("complete");
        assert!(matches!(frame, Frame::Imputed { trace_id: None, .. }));
    }

    #[test]
    fn frames_without_resume_fields_still_decode() {
        // A pre-resume client's Hello has no resume keys at all; decode
        // must yield `None`s, not an error (hand-built like the trace_id
        // test so the old layout stays covered).
        let json = "{\"Hello\":{\"tenant\":\"t\",\"ports\":[1],\
                    \"queues\":2,\"interval_len\":10,\"window_intervals\":3}}";
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(json.len() as u32).to_be_bytes());
        bytes.extend_from_slice(json.as_bytes());
        let (frame, _) = decode_frame(&bytes).unwrap().expect("complete");
        assert_eq!(
            frame,
            Frame::Hello {
                tenant: "t".into(),
                ports: vec![1],
                queues: 2,
                interval_len: 10,
                window_intervals: 3,
                resume_token: None,
                last_acked: None,
                codecs: None,
            }
        );
        // And a pre-resume server's Welcome.
        let json = "{\"Welcome\":{\"session\":4,\"deadline_ms\":50}}";
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(json.len() as u32).to_be_bytes());
        bytes.extend_from_slice(json.as_bytes());
        let (frame, _) = decode_frame(&bytes).unwrap().expect("complete");
        assert_eq!(
            frame,
            Frame::Welcome {
                session: 4,
                deadline_ms: 50,
                resume_token: None,
                resumed: None,
                resume_seq: None,
                codec: None,
            }
        );
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_be_bytes());
        bytes.extend_from_slice(b"junk");
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::Oversized {
                len: u32::MAX as usize
            })
        );
    }

    #[test]
    fn frame_cap_is_per_reader_configurable() {
        // A frame that fits the default cap but not a tightened one.
        let big = Frame::Error {
            code: "x".into(),
            message: "y".repeat(512),
        };
        let bytes = encode_frame(&big).unwrap();
        let mut tight = FrameReader::with_max_len(&bytes[..], 128);
        assert!(matches!(
            tight.read_frame(),
            Err(WireError::Oversized { .. })
        ));
        let mut roomy = FrameReader::with_max_len(&bytes[..], 4 * MAX_FRAME_LEN);
        assert_eq!(roomy.max_len(), 4 * MAX_FRAME_LEN);
        assert_eq!(roomy.read_frame().unwrap(), big);
        // The raised cap also lifts the encode ceiling symmetrically.
        let huge = Frame::Error {
            code: "x".into(),
            message: "z".repeat(MAX_FRAME_LEN + 1),
        };
        assert!(matches!(
            encode_frame(&huge),
            Err(WireError::Oversized { .. })
        ));
        let encoded = encode_frame_capped(&huge, 2 * MAX_FRAME_LEN).unwrap();
        let mut r = FrameReader::with_max_len(&encoded[..], 2 * MAX_FRAME_LEN);
        assert_eq!(r.read_frame().unwrap(), huge);
    }

    #[test]
    fn incomplete_frames_wait_for_more_bytes() {
        let bytes = encode_frame(&Frame::Bye).unwrap();
        for cut in 0..bytes.len() {
            assert_eq!(decode_frame(&bytes[..cut]), Ok(None), "cut at {cut}");
        }
    }

    #[test]
    fn garbage_payload_is_malformed_not_panic() {
        let payload = b"{not json";
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(payload);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
        // Invalid UTF-8 too.
        let payload = [0xff, 0xfe, 0x00];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&payload);
        assert!(matches!(decode_frame(&bytes), Err(WireError::Malformed(_))));
    }

    #[test]
    fn reader_reports_truncation_on_mid_frame_close() {
        let bytes = encode_frame(&Frame::Stats).unwrap();
        let cut = &bytes[..bytes.len() - 1];
        let mut r = FrameReader::new(cut);
        match r.read_frame() {
            Err(WireError::Truncated { expected, got }) => {
                assert_eq!(expected, bytes.len());
                assert_eq!(got, bytes.len() - 1);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn reader_decodes_back_to_back_frames() {
        let mut stream = encode_frame(&Frame::Stats).unwrap();
        stream.extend(encode_frame(&Frame::Bye).unwrap());
        stream.extend(
            encode_frame(&Frame::Interval {
                seq: 1,
                update: sample_update(),
                trace_id: None,
            })
            .unwrap(),
        );
        let mut r = FrameReader::new(&stream[..]);
        assert_eq!(r.read_frame().unwrap(), Frame::Stats);
        assert_eq!(r.read_frame().unwrap(), Frame::Bye);
        assert!(matches!(
            r.read_frame().unwrap(),
            Frame::Interval { seq: 1, .. }
        ));
        assert_eq!(r.read_frame(), Err(WireError::Closed));
    }

    /// A transport that hands out one scripted chunk per read, then
    /// reports a read timeout.
    struct Chunks(std::collections::VecDeque<Vec<u8>>);

    impl Read for Chunks {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let Some(chunk) = self.0.pop_front() else {
                return Err(ErrorKind::WouldBlock.into());
            };
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn buffered_frame_sees_only_complete_frames() {
        let stats = encode_frame(&Frame::Stats).unwrap();
        let bye = encode_frame(&Frame::Bye).unwrap();
        // Header split across reads, then two frames in one read.
        let mut both = stats[2..].to_vec();
        both.extend_from_slice(&bye);
        both.extend_from_slice(&stats[..3]);
        let mut r = FrameReader::new(Chunks(
            [stats[..2].to_vec(), both, stats[3..].to_vec()].into(),
        ));
        assert!(!r.buffered_frame(), "nothing read yet");
        assert_eq!(r.poll_frame().unwrap(), Some(Frame::Stats));
        assert!(r.buffered_frame(), "the Bye arrived in the same read");
        assert_eq!(r.poll_frame().unwrap(), Some(Frame::Bye));
        assert!(!r.buffered_frame(), "three header bytes are not a frame");
        assert_eq!(r.poll_frame().unwrap(), Some(Frame::Stats));
        assert!(!r.buffered_frame());
        assert_eq!(r.poll_frame().unwrap(), None);
    }

    #[test]
    fn buffered_frame_counts_a_zero_length_payload() {
        let mut bytes = encode_frame(&Frame::Stats).unwrap();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        let mut r = FrameReader::new(Chunks([bytes].into()));
        assert_eq!(r.poll_frame().unwrap(), Some(Frame::Stats));
        // Complete, though not decodable: the next poll answers from the
        // buffer alone.
        assert!(r.buffered_frame());
        assert!(matches!(r.poll_frame(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn buffered_frame_refuses_an_oversized_prefix() {
        let mut bytes = encode_frame(&Frame::Stats).unwrap();
        bytes.extend_from_slice(&129u32.to_be_bytes());
        bytes.extend_from_slice(&[b'x'; 129]);
        let mut r = FrameReader::with_max_len(Chunks([bytes].into()), 128);
        assert_eq!(r.poll_frame().unwrap(), Some(Frame::Stats));
        assert!(!r.buffered_frame(), "over the cap: never a frame");
        assert_eq!(r.poll_frame(), Err(WireError::Oversized { len: 129 }));
    }
}
