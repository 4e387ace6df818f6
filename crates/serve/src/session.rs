//! The exactly-once session, written once: what a `Hello` claims
//! ([`Identity`]), the opening that reads it ([`read_hello`]), the
//! [`welcome`], the token mint, and the [`Ledger`] of committed replies.
//! The server ([`crate::server`]) and the cluster router both drive this
//! module; it owns no socket and reads no clock — writes go through a
//! closure the driver lends it, time arrives as an argument — so a test
//! can feed it a byte slice.
//!
//! The contract lives on the [`Ledger`]'s three methods and nowhere
//! else: record before send ([`Ledger::commit`]), answer a duplicate
//! from the log and never feed a sliding window twice
//! ([`Ledger::answered`]), replay past the client's ack on resume
//! ([`Ledger::resume`]).

use crate::protocol::{Frame, FrameReader, WireCodec};
use std::collections::VecDeque;
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
    /// A tokenless `Hello` for this identity — what a router sends to
    /// every backend it places the session on.
    pub fn hello(&self, codecs: Option<Vec<String>>) -> Frame {
        Frame::Hello {
            tenant: self.tenant.clone(),
            ports: self.ports.clone(),
            queues: self.queues,
            interval_len: self.interval_len,
            window_intervals: self.window_intervals,
            resume_token: None,
            last_acked: None,
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

/// The mid-frame stall budget of one reader: a peer that leaves a frame
/// half-sent for more than [`MAX_STALLS`] consecutive read timeouts is
/// cut off. An idle peer (nothing buffered) never trips it.
#[derive(Debug, Default)]
pub struct Stalls(u32);

impl Stalls {
    /// Account one read timeout that left `pending` bytes buffered
    /// ([`FrameReader::pending`]); `true` means the budget is spent.
    pub fn timed_out(&mut self, pending: usize) -> bool {
        self.0 = if pending > 0 { self.0 + 1 } else { 0 };
        self.0 > MAX_STALLS
    }

    /// A complete frame arrived.
    pub fn progressed(&mut self) {
        self.0 = 0;
    }
}

/// What a monitoring probe is owed — `Stats` the endpoint's counters,
/// `MetricsDump` the process's obs registry — before, during or without
/// a session. `None`: `frame` is not a probe.
pub fn probe_reply(frame: &Frame, stats: impl FnOnce() -> Frame) -> Option<Frame> {
    match frame {
        Frame::Stats => Some(stats()),
        Frame::MetricsDump => Some(Frame::MetricsReply {
            json: fmml_obs::dump_json(),
        }),
        _ => None,
    }
}

/// The opening of every client-facing connection: answer probes until
/// the `Hello` arrives. `None` closes the connection: the peer hung up,
/// `stop` fired, the `Hello` did not arrive within [`HELLO_DEADLINE`] of
/// the first `now()`, a frame stalled past the [`Stalls`] budget, or the
/// first non-probe frame was not a `Hello` (refused with
/// `bad_handshake`). `send` writes one frame to the peer and reports
/// success; no codec is negotiated yet, so it speaks JSON.
pub fn read_hello<R: Read>(
    reader: &mut FrameReader<R>,
    now: impl Fn() -> Instant,
    stop: impl Fn() -> bool,
    stats: impl Fn() -> Frame,
    mut send: impl FnMut(&Frame) -> bool,
) -> Option<Hello> {
    let deadline = now() + HELLO_DEADLINE;
    let mut stalls = Stalls::default();
    loop {
        if stop() || now() > deadline {
            return None;
        }
        let frame = match reader.poll_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) if stalls.timed_out(reader.pending()) => return None,
            Ok(None) => continue,
            Err(_) => return None,
        };
        stalls.progressed();
        if let Some(reply) = probe_reply(&frame, &stats) {
            if !send(&reply) {
                return None;
            }
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
            send(&Frame::Error {
                code: "bad_handshake".into(),
                message: format!("expected Hello, got {}", frame.tag()),
            });
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

fn splitmix64(state: &mut u64) -> u64 {
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
    /// `cap = 0` keeps the watermark but logs nothing (resumption off).
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
    /// `cap = 0` disables the log entirely (resumption off).
    pub fn new(cap: usize) -> ReplayLog {
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
        if self.cap == 0 {
            return;
        }
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
    fn zero_cap_records_nothing() {
        let mut log = ReplayLog::new(0);
        log.record(1, b"x");
        assert_eq!(log.get(1), None);
        assert!(log.is_empty());
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

    #[test]
    fn ledger_without_a_log_still_keeps_the_watermark() {
        let ledger = Ledger::new(0);
        ledger.commit(5, b"x");
        assert_eq!(ledger.answered(5), None);
        assert_eq!(ledger.resume(Some(0), None), (5, vec![]));
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
