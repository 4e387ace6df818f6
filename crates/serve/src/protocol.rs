//! The `fmml-serve` wire protocol: length-prefixed frames in one of two
//! negotiated codecs.
//!
//! Every frame on the wire is `u32` big-endian payload length followed by
//! exactly that many payload bytes — one [`Frame`] per payload. The
//! payload is either UTF-8 JSON (serialized with the workspace's vendored
//! serde; externally tagged: unit variants are bare strings (`"Stats"`),
//! struct variants single-key objects (`{"Hello":{...}}`)) or the compact
//! binary "wire v2" codec ([`WireCodec::Bin1`]): a [`BIN1_MARKER`] byte, a
//! frame-tag byte, then the variant's fields as little-endian scalars and
//! length-prefixed strings/vectors. `0xB1` can never start a JSON payload,
//! so decoders sniff the codec per frame; *which codec an encoder uses* is
//! negotiated in the handshake (`Hello.codecs` advertises, `Welcome.codec`
//! picks, both always JSON) and missing keys mean JSON — old peers are
//! untouched. Both codecs derive from one frame table (`frame_table!`).
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
/// what a hostile length prefix can make the server allocate. Server and
/// router read every connection, client or backend link, under this cap:
/// a migration warm-up replays one stored client frame at a time, so a
/// link never carries a frame a client could not send.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Bytes of framing overhead per frame (the length prefix).
pub const HEADER_LEN: usize = 4;

/// Expands one frame table into the [`Frame`] enum, [`Frame::tag`], the
/// bin1 encoder and decoder, and the seq-leading tags that
/// [`decode_frame_meta`] peeks. Each entry is `tag => Variant { fields }`:
/// the bin1 tag byte, then the variant as it is declared, fields in wire
/// order. Every field type implements [`Bin1Field`].
macro_rules! frame_table {
    (
        $(#[$meta:meta])*
        pub enum Frame {
            $(
                $(#[$doc:meta])*
                $tag:literal => $variant:ident $({
                    $( $(#[$field_doc:meta])* $field:ident : $ty:ty ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum Frame {
            $( $(#[$doc])* $variant $({ $( $(#[$field_doc])* $field: $ty ),* })?, )*
        }

        impl Frame {
            /// Short tag for logging.
            pub fn tag(&self) -> &'static str {
                match self {
                    $( Frame::$variant { .. } => stringify!($variant), )*
                }
            }

            /// The frame's `seq`, for the frames whose first field it is.
            #[allow(unused_variables)]
            fn leading_seq(&self) -> Option<u64> {
                match self {
                    $( Frame::$variant $({ $($field),* })? => seq_first!(get $($($field)*)?), )*
                }
            }

            /// The seq this frame answers: `Ack`, `Imputed`, `Busy` and
            /// `Reject`, every seq-leading frame but the `Interval` that asks.
            pub fn reply_seq(&self) -> Option<u64> {
                let seq = self.leading_seq()?;
                FrameMeta { tag: self.tag(), seq }.reply_seq()
            }
        }

        fn encode_bin1(frame: &Frame) -> Vec<u8> {
            let mut out = Vec::with_capacity(64);
            match frame {
                $( Frame::$variant $({ $($field),* })? => {
                    out.extend_from_slice(&[BIN1_MARKER, $tag]);
                    $($( $field.put(&mut out); )*)?
                } )*
            }
            out
        }

        /// Decodes the payload after its [`BIN1_MARKER`].
        fn decode_bin1(body: &[u8]) -> Result<Frame, WireError> {
            let mut r = BinReader(body);
            let frame = match r.u8()? {
                $( $tag => Frame::$variant $({ $( $field: Bin1Field::get(&mut r)? ),* })?, )*
                t => return Err(WireError::Malformed(format!("bin1: unknown frame tag {t}"))),
            };
            r.done()?;
            Ok(frame)
        }

        /// The name of the frame a bin1 tag byte stands for, if that frame
        /// leads with `seq`.
        fn seq_leading_tag(tag: u8) -> Option<&'static str> {
            match tag {
                $( $tag if seq_first!(is $($($field)*)?) => Some(stringify!($variant)), )*
                _ => None,
            }
        }
    };
}

/// Over a variant's field names: is the first `seq` (`is`), and its value
/// in a match arm binding every field (`get`, which forwards the name
/// twice: once to match literally, once to name the arm's binding).
macro_rules! seq_first {
    (is seq $($rest:ident)*) => { true };
    (is $($rest:ident)*) => { false };
    (get) => { None };
    (get $first:ident $($rest:ident)*) => { seq_first!(bind $first $first) };
    (bind seq $seq:ident) => { Some(*$seq) };
    (bind $other:ident $binding:ident) => { None };
}

frame_table! {
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
        0 => Hello {
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
        1 => Welcome {
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
        2 => Interval {
            seq: u64,
            update: IntervalUpdate,
            trace_id: Option<u64>,
        },
        /// Interval accepted and buffered, but the sliding window is still
        /// warming up — no series yet.
        3 => Ack { seq: u64, buffered: usize },
        /// The freshly imputed fine series of the newest interval, corrected
        /// through the CEM degradation ladder. `level` is the
        /// [`DegradationLevel`](fmml_fm::cem::DegradationLevel) label
        /// (`DegradationLevel::from_label` decodes it); `enforced` is `false`
        /// only when the measurements themselves were contradictory and had
        /// to be minimally relaxed.
        4 => Imputed {
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
        5 => Busy { seq: u64, depth: usize },
        /// The interval was malformed (wrong port, mismatched shapes) and was
        /// not ingested. The session stays up.
        6 => Reject { seq: u64, reason: String },
        /// Ask the server for its counters.
        7 => Stats,
        /// Ask the server for a full introspection dump: every registered
        /// metric (counters, gauges, histogram quantiles p50/p90/p99/p999)
        /// plus recent trace summaries and a folded-stacks export. Answered
        /// with [`Frame::MetricsReply`]; allowed pre-handshake, like `Stats`.
        8 => MetricsDump,
        /// The dump, as one JSON document (see [`fmml_obs::dump_json`] for
        /// the shape). Kept opaque at the protocol layer so the registry can
        /// grow fields without a wire change.
        9 => MetricsReply { json: String },
        10 => StatsReply {
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
        11 => Bye,
        /// Drain result for the session: `answered` replies were written, and
        /// `remaining` accepted intervals were still in flight when the
        /// server's drain budget expired. `remaining == 0` is a full drain;
        /// `remaining > 0` means the drain timed out and that many replies
        /// were dropped — clients can distinguish the two instead of trusting
        /// an unconditional "all answered".
        12 => ByeAck { answered: u64, remaining: u64 },
        /// Fatal session error (bad handshake, unparseable frame, shutdown).
        13 => Error { code: String, message: String },
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
    /// Payload was not a valid [`Frame`] in either codec.
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
    /// Length-prefixed UTF-8 JSON — the v1 format, the handshake's codec,
    /// and what a peer that names no codec speaks.
    #[default]
    Json,
    /// Wire v2: marker byte + frame tag + little-endian fields.
    Bin1,
}

impl WireCodec {
    const ALL: [WireCodec; 2] = [WireCodec::Json, WireCodec::Bin1];

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
        WireCodec::ALL.into_iter().find(|c| c.label() == s)
    }

    /// The codecs a v2 peer advertises in `Hello.codecs`.
    pub fn advertise() -> Vec<String> {
        WireCodec::ALL.map(|c| c.label().into()).to_vec()
    }

    /// Server-side pick: the server's preferred codec if the client
    /// advertised it, else JSON. `None` (a pre-v2 `Hello`) always
    /// negotiates JSON.
    pub fn negotiate(prefer: WireCodec, advertised: Option<&[String]>) -> WireCodec {
        match (prefer, advertised) {
            (WireCodec::Bin1, Some(list)) if list.iter().any(|c| c == prefer.label()) => prefer,
            _ => WireCodec::Json,
        }
    }

    /// The codec a given payload is encoded in (by sniffing the marker
    /// byte; JSON payloads start with `{` or `"`, never `0xB1`).
    pub fn of_payload(payload: &[u8]) -> WireCodec {
        match payload.first() {
            Some(&BIN1_MARKER) => WireCodec::Bin1,
            _ => WireCodec::Json,
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

/// Encode one frame to its on-wire bytes (header + JSON payload), capped
/// at [`MAX_FRAME_LEN`].
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, WireError> {
    encode_frame_with(frame, WireCodec::Json, MAX_FRAME_LEN)
}

/// Encode one frame in `codec` with a payload cap — the primitive
/// everything else lowers onto. Router links that carry batched replays
/// raise the cap; the wire format itself tops out at `u32`.
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
    Ok([&(payload.len() as u32).to_be_bytes()[..], &payload].concat())
}

/// Decode one frame from the front of `buf` (cap [`MAX_FRAME_LEN`]).
/// Returns the frame and the number of bytes consumed, or `Ok(None)` if
/// `buf` does not yet hold a complete frame.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    match announced_len(buf, MAX_FRAME_LEN)? {
        Some(n) if buf.len() >= n => Ok(Some((decode_payload(&buf[HEADER_LEN..n])?, n))),
        _ => Ok(None),
    }
}

/// The total on-wire length (header included) that the length prefix at
/// the front of `buf` announces; `None` while the header is incomplete.
/// The cap is enforced against the *prefix*, before any payload is
/// allocated: what makes it safe to expose as a config knob.
fn announced_len(buf: &[u8], max_len: usize) -> Result<Option<usize>, WireError> {
    let Some(&prefix) = buf.first_chunk::<HEADER_LEN>() else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max_len {
        return Err(WireError::Oversized { len });
    }
    Ok(Some(HEADER_LEN + len))
}

/// Decode one complete payload, sniffing the codec from its first byte.
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    match payload {
        [BIN1_MARKER, body @ ..] => decode_bin1(body),
        _ => {
            let text = std::str::from_utf8(payload)
                .map_err(|e| WireError::Malformed(format!("utf-8: {e}")))?;
            serde_json::from_str(text).map_err(|e| WireError::Malformed(e.to_string()))
        }
    }
}

/// Routing metadata of a seq-leading wire-v2 payload, read without
/// decoding the body (see [`decode_frame_meta`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Short tag name, same strings as [`Frame::tag`].
    pub tag: &'static str,
    /// The frame's correlation seq.
    pub seq: u64,
}

impl FrameMeta {
    /// [`Frame::reply_seq`] of the peeked frame: its seq, unless it is the
    /// `Interval` that asks for an answer.
    pub fn reply_seq(&self) -> Option<u64> {
        (self.tag != "Interval").then_some(self.seq)
    }
}

/// Fixed-offset peek: a frame whose first field is `seq` (`Interval`,
/// `Ack`, `Imputed`, `Busy`, `Reject`) has it at payload bytes `[2..10]`,
/// as bin1 writes fields in table order and a u64 as 8 bytes. `None` for
/// JSON (callers fall back to a full decode) and for other frames.
pub fn decode_frame_meta(payload: &[u8]) -> Option<FrameMeta> {
    let [BIN1_MARKER, tag, seq @ ..] = payload else {
        return None;
    };
    let tag = seq_leading_tag(*tag)?;
    let seq = u64::from_le_bytes(*seq.first_chunk()?);
    Some(FrameMeta { tag, seq })
}

/// A type a frame field can have, and its bin1 layout. A bin1 payload is
/// [`BIN1_MARKER`], the tag byte, then the fields in table order: scalars
/// little-endian (`usize` as u64, bool as one 0/1 byte), strings and
/// vectors after a u32 element count, `Option`s after a 0/1 presence byte.
/// The body must consume the payload exactly: trailing bytes are
/// malformed, mirroring the JSON parser's strictness.
trait Bin1Field: Sized {
    /// The fewest bytes one encoded value takes. A count is checked against
    /// it before anything is allocated, so a hostile count cannot make the
    /// decoder allocate more than the bytes on the wire justify.
    const MIN_LEN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut BinReader<'_>) -> Result<Self, WireError>;
}

macro_rules! le_int_field {
    ($($int:ty),*) => {$(
        impl Bin1Field for $int {
            const MIN_LEN: usize = std::mem::size_of::<$int>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut BinReader<'_>) -> Result<Self, WireError> {
                r.array().map(<$int>::from_le_bytes)
            }
        }
    )*};
}

le_int_field!(u32, u64);

/// Travels as a u64, so both ends agree whatever their pointer width.
impl Bin1Field for usize {
    const MIN_LEN: usize = 8;
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        usize::try_from(u64::get(r)?)
            .map_err(|_| WireError::Malformed("bin1: usize overflow".into()))
    }
}

impl Bin1Field for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn get(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed(format!("bin1: bad flag byte {b}"))),
        }
    }
}

impl Bin1Field for String {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let n = r.count(1)?;
        String::from_utf8(r.take(n)?.to_vec())
            .map_err(|e| WireError::Malformed(format!("bin1: utf-8: {e}")))
    }
}

impl<T: Bin1Field> Bin1Field for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for x in self {
            x.put(out);
        }
    }
    fn get(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        let n = r.count(T::MIN_LEN)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(r)?);
        }
        Ok(v)
    }
}

impl<T: Bin1Field> Bin1Field for Option<T> {
    const MIN_LEN: usize = 1;
    /// A presence flag, then the value if there is one.
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(x) = self {
            x.put(out);
        }
    }
    fn get(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        bool::get(r)?.then(|| T::get(r)).transpose()
    }
}

/// Fields in declaration order (`get` names every one, so a new field
/// does not compile until it is given a place on the wire).
impl Bin1Field for IntervalUpdate {
    const MIN_LEN: usize = 8 + 4 + 4 + 3 * 4;
    fn put(&self, out: &mut Vec<u8>) {
        self.port.put(out);
        self.samples.put(out);
        self.maxes.put(out);
        self.sent.put(out);
        self.dropped.put(out);
        self.received.put(out);
    }
    fn get(r: &mut BinReader<'_>) -> Result<Self, WireError> {
        Ok(IntervalUpdate {
            port: Bin1Field::get(r)?,
            samples: Bin1Field::get(r)?,
            maxes: Bin1Field::get(r)?,
            sent: Bin1Field::get(r)?,
            dropped: Bin1Field::get(r)?,
            received: Bin1Field::get(r)?,
        })
    }
}

/// The unread rest of a bin1 payload.
struct BinReader<'a>(&'a [u8]);

impl<'a> BinReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let Some((head, rest)) = self.0.split_at_checked(n) else {
            return Err(WireError::Malformed(format!(
                "bin1: body truncated ({} bytes left, {n} needed)",
                self.0.len()
            )));
        };
        self.0 = rest;
        Ok(head)
    }
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self
            .take(N)?
            .try_into()
            .expect("take yields exactly N bytes"))
    }
    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    /// An element count, bounds-checked against the bytes left (see
    /// [`Bin1Field::MIN_LEN`]).
    fn count(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = u32::get(self)? as usize;
        match n.checked_mul(min_elem_bytes) {
            Some(bytes) if bytes <= self.0.len() => Ok(n),
            _ => Err(WireError::Malformed(format!(
                "bin1: count {n} exceeds remaining {} bytes",
                self.0.len()
            ))),
        }
    }
    fn done(&self) -> Result<(), WireError> {
        match self.0.len() {
            0 => Ok(()),
            n => Err(WireError::Malformed(format!(
                "bin1: {n} trailing bytes after body"
            ))),
        }
    }
}

/// Serialize and write one frame (JSON, default cap).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), WireError> {
    write_bytes(w, &encode_frame(frame)?)
}

/// Write pre-encoded frame bytes (from [`encode_frame_with`]). Lets callers
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
    /// Length of the frame [`poll_frame`](FrameReader::poll_frame) last
    /// returned, still at the front of `buf` (see
    /// [`frame_bytes`](FrameReader::frame_bytes)); dropped by the next poll.
    taken: usize,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> FrameReader<R> {
        FrameReader::with_max_len(inner, MAX_FRAME_LEN)
    }

    /// A reader with an explicit frame cap (tests and tools; every
    /// server and router connection reads at [`MAX_FRAME_LEN`]).
    pub fn with_max_len(inner: R, max_len: usize) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::with_capacity(4096),
            max_len,
            last_decode_ns: 0,
            taken: 0,
        }
    }

    /// CPU time the most recent successful [`poll_frame`](Self::poll_frame)
    /// spent parsing its frame (0 when span tracing is off — the clock is
    /// only read when someone will attribute the stage). Socket wait time
    /// is never included.
    pub fn last_decode_ns(&self) -> u64 {
        self.last_decode_ns
    }

    /// Bytes buffered towards the next frame (non-zero after a mid-frame
    /// timeout — the stall signal).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.taken
    }

    /// Whether a complete frame is already buffered, so the next
    /// [`poll_frame`](FrameReader::poll_frame) returns without a read. A
    /// length prefix over the cap never completes: `false`, and the next
    /// poll fails on it.
    pub fn buffered_frame(&self) -> bool {
        let buf = &self.buf[self.taken..];
        matches!(announced_len(buf, self.max_len), Ok(Some(n)) if buf.len() >= n)
    }

    /// The wire bytes (header included) of the frame the last
    /// [`poll_frame`](FrameReader::poll_frame) returned, valid until the
    /// next poll: a forwarder gets the frame it decoded without a copy.
    pub(crate) fn frame_bytes(&self) -> &[u8] {
        &self.buf[..self.taken]
    }

    /// Try to read one frame. `Ok(None)` means the read timed out before
    /// a complete frame arrived (retry later); errors are terminal for
    /// the connection except as the caller decides.
    pub fn poll_frame(&mut self) -> Result<Option<Frame>, WireError> {
        self.buf.drain(..std::mem::take(&mut self.taken));
        loop {
            let t0 = fmml_obs::trace::enabled().then(std::time::Instant::now);
            if let Some(n) =
                announced_len(&self.buf, self.max_len)?.filter(|&n| self.buf.len() >= n)
            {
                let frame = decode_payload(&self.buf[HEADER_LEN..n])?;
                self.last_decode_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                self.taken = n;
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
        self.buf.drain(..std::mem::take(&mut self.taken));
        loop {
            if let Some(n) =
                announced_len(&self.buf, self.max_len)?.filter(|&n| self.buf.len() >= n)
            {
                let bytes = self.buf.drain(..n).collect();
                return Ok(Some(RawFrame { bytes }));
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
                Ok(0) if self.buf.is_empty() => return Err(WireError::Closed),
                Ok(0) => {
                    // 0 when even the length prefix was cut short.
                    let expected = announced_len(&self.buf, self.max_len)?.unwrap_or(0);
                    return Err(WireError::Truncated {
                        expected,
                        got: self.buf.len(),
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
        self.poll_frame()?.ok_or(WireError::Timeout)
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

    /// The exact wire bytes of every frame in both codecs, pinned as FNV-1a
    /// hashes. Round trips cannot see a layout change that the encoder and
    /// decoder make together (two fields swapped in both); this can. A
    /// mismatch is a wire change: re-record only when one is intended.
    #[test]
    fn wire_bytes_are_pinned() {
        const JSON: [u64; 17] = [
            0xb74da42e10969a28,
            0xd205ef6cbef87cf3,
            0xd5fff999b24929d5,
            0x4cb03d714ee9af82,
            0xb26d72dccc0f7340,
            0x374b6ebaa28fb98d,
            0x0503f18a59b3c524,
            0xe303f1294e982aee,
            0x5ee69039e213fe7b,
            0xd794707f52425fd6,
            0xa714d253fe32f53d,
            0x7a59ae6ad3e32243,
            0x584c97808f96ce83,
            0x78ef44df7dd0ab81,
            0x9f45e2be7ab2ae02,
            0x8d88299ca900b45a,
            0xdd3a2eced628dc31,
        ];
        const BIN1: [u64; 17] = [
            0x1d6b533560e4c621,
            0x8a5313a9e8699080,
            0xcdee0f85926b8622,
            0x4651e12f26838a4f,
            0xc394f1930d805dc7,
            0xe5858684715e698e,
            0x3102543631d79da2,
            0x9fca391e46b02576,
            0xd8e11619f6ac6af6,
            0x54ebc2e30c6ce552,
            0xc57ec3fa1ee39907,
            0xc57eb8fa1ee38656,
            0xc02a3d6dbb85dcad,
            0xaf49919a5fb40705,
            0xc57eb7fa1ee384a3,
            0x932202579a7e6cda,
            0x41e72fb31e803d50,
        ];
        for (codec, pinned) in [(WireCodec::Json, JSON), (WireCodec::Bin1, BIN1)] {
            for (f, want) in every_variant().iter().zip(pinned) {
                let bytes = encode_frame_with(f, codec, MAX_FRAME_LEN).unwrap();
                let got = fmml_obs::fnv::bytes(fmml_obs::fnv::OFFSET, &bytes);
                assert_eq!(got, want, "{codec} {} bytes moved: {got:#018x}", f.tag());
            }
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
            assert_eq!(Some(meta.seq), f.leading_seq());
        }
        // Seq-less v2 frames and JSON payloads report no metadata, and the
        // peek answers the same seqs as the decoded frame.
        for f in every_variant() {
            let bin = encode_frame_with(&f, WireCodec::Bin1, MAX_FRAME_LEN).unwrap();
            let meta = decode_frame_meta(&bin[HEADER_LEN..]);
            assert_eq!(meta.map(|m| m.seq), f.leading_seq(), "{}", f.tag());
            assert_eq!(meta.and_then(|m| m.reply_seq()), f.reply_seq());
            let json = encode_frame(&f).unwrap();
            assert_eq!(decode_frame_meta(&json[HEADER_LEN..]), None);
        }
    }

    #[test]
    fn reply_seq_is_the_answered_seq() {
        let answered: Vec<_> = every_variant()
            .iter()
            .filter_map(|f| Some((f.tag(), f.reply_seq()?)))
            .collect();
        assert_eq!(
            answered,
            [("Ack", 42), ("Imputed", 42), ("Busy", 43), ("Reject", 44)]
        );
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
        let mut body = vec![BIN1_MARKER, 4]; // Imputed
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
        let encoded = encode_frame_with(&huge, WireCodec::Json, 2 * MAX_FRAME_LEN).unwrap();
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
