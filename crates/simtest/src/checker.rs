//! Pure reference state machine of the `fmml-serve` wire protocol.
//!
//! [`ClientModel`] tracks what one client has sent and what the
//! protocol therefore *owes* it, independent of any transport or
//! timing: handshake verdicts (`Welcome.resumed` must match the token's
//! known state), warm-up arithmetic (the k-th accepted interval of an
//! imputer chain is `Ack`ed iff `k < window_intervals - 1`),
//! exactly-once delivery (a second reply for a seq must be identical to
//! the first — replays and dedup answers come from the replay log
//! bitwise), replay completeness (every pending seq at or below
//! `resume_seq` must be answered by the replay; every one above it is
//! the client's to re-send), and end-of-run completeness (no seq may be
//! left unresolved once the schedule drains faultlessly).
//!
//! It checks the client half too, without driving it: the driver's
//! [`fmml_serve::ClientSession`] builds every `Hello` and picks every
//! re-send, and the model compares both against its own bookkeeping
//! ([`ClientModel::on_hello`], [`ClientModel::on_welcome`]).
//!
//! The model is deliberately fault-oblivious: it never sees the fault
//! schedule, only the frames the client actually sent and received.
//! Faults may *delay* obligations (a dead connection suspends them
//! until resume) but never cancel them — which is exactly the property
//! the explorer's final faultless drain turns into a checkable one.
//!
//! Everything here is pure bookkeeping over [`Frame`] values; the
//! explorer ([`crate::explorer`]) owns all I/O and clocks.

use fmml_obs::fnv;
use fmml_serve::Frame;
use std::collections::BTreeMap;

/// What the model knows about the resume token a reconnect presents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeExpect {
    /// No token (first connect): the server must answer a fresh session.
    Fresh,
    /// A live token: the server must resume (`resumed = Some(true)`).
    Valid,
    /// A token whose parked state aged past `parked_ttl`: the server
    /// must answer a fresh session and must NOT resurrect old state.
    Expired,
}

/// Reply kind the reference model predicts for a sent interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// Window still warming up: accepted and buffered.
    Ack,
    /// Window full: an imputed series must come back.
    Imputed,
    /// Malformed on purpose (wrong port / bad shape): typed reject.
    Reject,
}

impl ReplyKind {
    fn tag(self) -> &'static str {
        match self {
            ReplyKind::Ack => "Ack",
            ReplyKind::Imputed => "Imputed",
            ReplyKind::Reject => "Reject",
        }
    }
}

/// Reference protocol state for one client.
pub struct ClientModel {
    id: usize,
    window_intervals: usize,
    /// Last allocated seq (seqs are 1-based and monotone across session
    /// lineages — a fresh session after expiry does NOT reset them).
    last_seq: u64,
    /// Accepted-interval ordinal within the current imputer chain;
    /// resets only when the chain is abandoned (fresh session).
    chain_good: u64,
    /// Sent but unresolved seqs, with the predicted reply kind.
    pending: BTreeMap<u64, ReplyKind>,
    /// Resolved seqs with the exact reply frame (for duplicate checks
    /// and the run fingerprint). Bounded: [`evict_acked`] folds entries
    /// at or below the acked watermark into `fp_acc` and drops them.
    ///
    /// [`evict_acked`]: ClientModel::evict_acked
    resolved: BTreeMap<u64, Frame>,
    /// Fixed-basis incremental fingerprint of evicted replies, folded
    /// in seq order. Starting from a constant (not the caller's run
    /// hash) makes the client fingerprint independent of *when*
    /// eviction happens: `fold_fingerprint` folds the retained tail
    /// into a copy of this accumulator and only then combines with the
    /// run hash.
    fp_acc: u64,
    /// Every seq at or below this has been evicted: late duplicate
    /// replies for them are benign (the content check already passed
    /// once; the bytes are no longer held to re-compare).
    evicted_floor: u64,
    /// High-water mark of `resume_seq` values seen: the server's ingest
    /// watermark never moves backwards within an imputer chain.
    watermark: u64,
    violations: Vec<String>,
}

impl ClientModel {
    pub fn new(id: usize, window_intervals: usize) -> ClientModel {
        ClientModel {
            id,
            window_intervals,
            last_seq: 0,
            chain_good: 0,
            pending: BTreeMap::new(),
            resolved: BTreeMap::new(),
            fp_acc: fnv::OFFSET,
            evicted_floor: 0,
            watermark: 0,
            violations: Vec::new(),
        }
    }

    pub fn id(&self) -> usize {
        self.id
    }

    /// Allocate the next seq for a well-formed interval and predict its
    /// reply kind from the warm-up arithmetic. Sound because ingestion
    /// order equals allocation order: the transport is a FIFO stream,
    /// losses are burst suffixes, and resumption re-sends pending seqs
    /// in order before anything new.
    pub fn alloc_good(&mut self) -> u64 {
        self.last_seq += 1;
        let kind = if (self.chain_good as usize) < self.window_intervals.saturating_sub(1) {
            ReplyKind::Ack
        } else {
            ReplyKind::Imputed
        };
        self.chain_good += 1;
        self.pending.insert(self.last_seq, kind);
        self.last_seq
    }

    /// Allocate the next seq for a deliberately malformed interval
    /// (e.g. an unannounced port): the protocol owes a `Reject`, and
    /// the sliding window must NOT advance.
    pub fn alloc_bad(&mut self) -> u64 {
        self.last_seq += 1;
        self.pending.insert(self.last_seq, ReplyKind::Reject);
        self.last_seq
    }

    /// The ack point a resuming client owes the server: everything
    /// below the oldest pending seq has been processed.
    fn last_acked(&self) -> u64 {
        self.pending.keys().next().map_or(self.last_seq, |&m| m - 1)
    }

    fn pending_seqs(&self) -> Vec<u64> {
        self.pending.keys().copied().collect()
    }

    pub fn resolved_len(&self) -> usize {
        self.resolved.len()
    }

    pub fn violation(&mut self, v: String) {
        self.violations.push(v);
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Feed one seq-carrying reply. Checks exactly-once (duplicates
    /// must be identical), predicted kind, and that the seq was ever
    /// sent.
    pub fn on_reply(&mut self, f: &Frame) {
        let actual = f.tag();
        let Some(seq) = f.reply_seq() else {
            self.violations
                .push(format!("unexpected {actual} frame in reply position"));
            return;
        };
        if seq <= self.evicted_floor {
            // A stale duplicate of an evicted reply (e.g. a replay
            // burst racing an ack): it already passed the content check
            // before eviction, so accept it silently.
            return;
        }
        if let Some(prev) = self.resolved.get(&seq) {
            // Replays and dedup answers come from the replay log: the
            // bytes must be identical to the first resolution.
            if prev != f {
                self.violations.push(format!(
                    "seq {seq}: conflicting duplicate reply ({} then {})",
                    prev.tag(),
                    f.tag()
                ));
            }
            return;
        }
        let Some(pred) = self.pending.remove(&seq) else {
            self.violations
                .push(format!("{actual} reply for never-sent seq {seq}"));
            return;
        };
        if actual == "Busy" {
            // The explorer configures an effectively unbounded queue.
            self.violations
                .push(format!("seq {seq}: Busy under unbounded admission queue"));
        } else if pred.tag() != actual {
            self.violations.push(format!(
                "seq {seq}: reference model predicted {}, server sent {actual}",
                pred.tag()
            ));
        }
        self.resolved.insert(seq, f.clone());
    }

    /// Check the `Hello` of a (re)connect: a tokenless one acknowledges
    /// nothing; one presenting a token acknowledges exactly everything
    /// below the oldest pending seq (the last seq if nothing is pending)
    /// — a seq too low re-requests answered replies, one too high lets
    /// the server drop a reply still owed.
    pub fn on_hello(&mut self, expect: ResumeExpect, hello: &Frame) {
        let Frame::Hello { last_acked, .. } = hello else {
            return self.violation(format!("client opened with {}", hello.tag()));
        };
        let want = (expect != ResumeExpect::Fresh).then(|| self.last_acked());
        if *last_acked != want {
            self.violation(format!("Hello.last_acked {last_acked:?}, owed {want:?}"));
        }
    }

    /// Feed the `Welcome` of a (re)connect and the seqs the client
    /// re-sent in answer to it. A resumed session owes the re-send of
    /// exactly the pending seqs above `resume_seq`, in seq order; a fresh
    /// one resets the model's chain and owes none.
    pub fn on_welcome(
        &mut self,
        expect: ResumeExpect,
        resumed: Option<bool>,
        resume_seq: Option<u64>,
        resent: &[u64],
    ) {
        // `Some(resume_seq)` if the session resumed, `None` if fresh.
        let resumed_at = match expect {
            ResumeExpect::Fresh => {
                if resumed != Some(false) {
                    self.violations.push(format!(
                        "tokenless Hello answered with resumed={resumed:?} (want Some(false))"
                    ));
                }
                if let Some(r) = resume_seq {
                    self.violations
                        .push(format!("fresh session carries resume_seq={r}"));
                }
                None
            }
            ResumeExpect::Valid => {
                if resumed == Some(true) {
                    let r = resume_seq.unwrap_or_else(|| {
                        self.violations
                            .push("resumed session without resume_seq".into());
                        0
                    });
                    if r < self.watermark {
                        self.violations.push(format!(
                            "resume_seq regressed: {r} < prior watermark {}",
                            self.watermark
                        ));
                    }
                    if r > self.last_seq {
                        self.violations.push(format!(
                            "resume_seq {r} beyond last sent seq {}",
                            self.last_seq
                        ));
                    }
                    self.watermark = self.watermark.max(r);
                    Some(r)
                } else {
                    // A live token answered fresh: every pending reply
                    // this session was owed is gone.
                    self.violations.push(format!(
                        "session lost: valid resume token answered fresh, pending {:?}",
                        self.pending_seqs()
                    ));
                    self.reset_chain();
                    None
                }
            }
            ResumeExpect::Expired if resumed == Some(true) => {
                self.violations
                    .push("expired resume token resurrected a session".into());
                Some(resume_seq.unwrap_or(0))
            }
            ResumeExpect::Expired => {
                if !self.pending.is_empty() {
                    // The explorer only expires settled sessions; pending
                    // here means the harness itself lost track.
                    self.violations.push(format!(
                        "expired with pending obligations {:?}",
                        self.pending_seqs()
                    ));
                }
                self.reset_chain();
                None
            }
        };
        let owed: Vec<u64> = resumed_at.map_or(Vec::new(), |r| {
            self.pending.range(r + 1..).map(|(&s, _)| s).collect()
        });
        if resent != owed {
            self.violation(format!("client re-sent {resent:?}, owed {owed:?}"));
        }
    }

    fn reset_chain(&mut self) {
        self.pending.clear();
        self.chain_good = 0;
        self.watermark = 0;
    }

    /// End-of-run completeness: after the final faultless drain, every
    /// sent seq must have been resolved exactly once.
    pub fn final_check(&mut self) {
        if !self.pending.is_empty() {
            self.violations.push(format!(
                "run ended with unresolved seqs {:?} (replay incomplete?)",
                self.pending_seqs()
            ));
        }
    }

    /// Evict every resolved reply at or below the acked watermark
    /// (nothing below the oldest pending seq can ever be re-compared:
    /// the client will not re-send it and a conforming server will not
    /// re-answer it except from the replay log). Evicted lines fold
    /// into the fixed-basis accumulator in seq order, so the final
    /// fingerprint is identical whether or not — and how often —
    /// eviction ran. This bounds the checker's memory by the pending
    /// span instead of the run length.
    pub fn evict_acked(&mut self) {
        let floor = self.last_acked();
        while let Some((&seq, _)) = self.resolved.first_key_value() {
            if seq > floor {
                break;
            }
            let f = self.resolved.remove(&seq).expect("first key exists");
            self.fp_acc = fnv::str(self.fp_acc, &self.line(seq, &f));
            self.evicted_floor = self.evicted_floor.max(seq);
        }
    }

    fn line(&self, seq: u64, f: &Frame) -> String {
        format!("c{}|{}|{}", self.id, seq, normalize(f))
    }

    /// Fold this client's resolved replies into a run fingerprint.
    /// Timing-sensitive fields (`latency_us`, `trace_id`) are excluded;
    /// everything else — series bytes, degradation levels, warm-up
    /// counts, reject reasons — must replay bitwise for a given seed.
    /// Internally: the retained tail is folded into a copy of the
    /// eviction accumulator (fixed basis), and that digest is folded
    /// into `h` — eviction timing cannot change the result.
    pub fn fold_fingerprint(&self, h: u64) -> u64 {
        let mut acc = self.fp_acc;
        for (seq, f) in &self.resolved {
            acc = fnv::str(acc, &self.line(*seq, f));
        }
        fnv::str(h, &format!("c{}|{acc:016x}", self.id))
    }

    /// Write every *retained* fingerprinted line to `w` — debugging aid
    /// for diffing two runs of the same seed (`FMML_SIMTEST_DUMP=1`).
    /// Evicted lines are summarized by the accumulator digest.
    pub fn dump(&self, w: &mut dyn std::io::Write) {
        if self.evicted_floor > 0 {
            let _ = writeln!(
                w,
                "c{}|..{}|evicted:{:016x}",
                self.id, self.evicted_floor, self.fp_acc
            );
        }
        for (seq, f) in &self.resolved {
            let _ = writeln!(w, "{}", self.line(*seq, f));
        }
    }
}

/// Semantic view of a reply for fingerprinting: deterministic fields
/// only.
fn normalize(f: &Frame) -> String {
    match f {
        Frame::Ack { buffered, .. } => format!("Ack:{buffered}"),
        Frame::Imputed {
            port,
            series,
            level,
            enforced,
            ..
        } => format!("Imputed:{port}:{level}:{enforced}:{series:?}"),
        Frame::Busy { .. } => "Busy".into(),
        Frame::Reject { reason, .. } => format!("Reject:{reason}"),
        other => format!("{other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ack(seq: u64, buffered: usize) -> Frame {
        Frame::Ack { seq, buffered }
    }

    fn imputed(seq: u64, series: Vec<Vec<u32>>) -> Frame {
        Frame::Imputed {
            seq,
            port: 1,
            series,
            level: "full".into(),
            enforced: true,
            latency_us: 7,
            trace_id: None,
        }
    }

    #[test]
    fn warmup_arithmetic_predicts_ack_then_imputed() {
        let mut m = ClientModel::new(0, 3);
        let s1 = m.alloc_good();
        let s2 = m.alloc_good();
        let s3 = m.alloc_good();
        m.on_reply(&ack(s1, 1));
        m.on_reply(&ack(s2, 2));
        m.on_reply(&imputed(s3, vec![vec![1]]));
        assert!(m.violations().is_empty(), "{:?}", m.violations());
        // A fourth interval must be Imputed, not Ack.
        let s4 = m.alloc_good();
        m.on_reply(&ack(s4, 1));
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].contains("predicted Imputed"));
    }

    #[test]
    fn identical_duplicates_pass_conflicting_ones_fail() {
        let mut m = ClientModel::new(0, 2);
        let s1 = m.alloc_good();
        let r = ack(s1, 1);
        m.on_reply(&r);
        m.on_reply(&r); // replayed bitwise: fine
        assert!(m.violations().is_empty());
        m.on_reply(&ack(s1, 9)); // same seq, different content
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].contains("conflicting duplicate"));
    }

    #[test]
    fn reply_for_unsent_seq_is_flagged() {
        let mut m = ClientModel::new(0, 2);
        m.on_reply(&ack(42, 1));
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].contains("never-sent"));
    }

    #[test]
    fn valid_token_answered_fresh_is_session_loss() {
        let mut m = ClientModel::new(0, 3);
        m.alloc_good();
        m.on_welcome(ResumeExpect::Valid, Some(false), None, &[]);
        assert_eq!(m.violations().len(), 1);
        assert!(m.violations()[0].contains("session lost"));
        // The chain reset: warm-up restarts.
        let s = m.alloc_good();
        m.on_reply(&ack(s, 1));
        assert_eq!(m.violations().len(), 1, "{:?}", m.violations());
    }

    #[test]
    fn expired_token_must_not_resume() {
        let mut m = ClientModel::new(0, 3);
        m.on_welcome(ResumeExpect::Expired, Some(true), Some(4), &[]);
        assert!(m.violations()[0].contains("resurrected"));
    }

    #[test]
    fn resume_seq_must_be_monotone() {
        let mut m = ClientModel::new(0, 3);
        let s1 = m.alloc_good();
        m.on_reply(&ack(s1, 1));
        m.on_welcome(ResumeExpect::Valid, Some(true), Some(1), &[]);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
        let s2 = m.alloc_good();
        m.on_welcome(ResumeExpect::Valid, Some(true), Some(0), &[s2]);
        assert!(m
            .violations()
            .iter()
            .any(|v| v.contains("resume_seq regressed")));
    }

    #[test]
    fn final_check_flags_replay_gaps() {
        // The ReplayOffByOne shape: pending seq 1 is at or below
        // resume_seq, so the replay owes it — if the replay skips it,
        // nothing ever resolves it and the run ends incomplete.
        let mut m = ClientModel::new(0, 2);
        let s1 = m.alloc_good();
        let s2 = m.alloc_good();
        m.on_welcome(ResumeExpect::Valid, Some(true), Some(2), &[]);
        // Replay (buggy) only delivers seq 2.
        m.on_reply(&imputed(s2, vec![vec![2]]));
        m.final_check();
        assert!(
            m.violations().iter().any(|v| v.contains(&format!("{s1}"))),
            "{:?}",
            m.violations()
        );
    }

    fn hello(last_acked: Option<u64>) -> Frame {
        Frame::Hello {
            tenant: "t".into(),
            ports: vec![1],
            queues: 2,
            interval_len: 10,
            window_intervals: 2,
            resume_token: last_acked.map(|_| "tok".into()),
            last_acked,
            codecs: None,
        }
    }

    #[test]
    fn hello_must_ack_exactly_below_the_oldest_pending_seq() {
        let mut m = ClientModel::new(0, 3);
        m.on_hello(ResumeExpect::Fresh, &hello(None));
        let s1 = m.alloc_good();
        let s2 = m.alloc_good();
        m.on_reply(&ack(s2, 2));
        m.on_hello(ResumeExpect::Valid, &hello(Some(s1 - 1)));
        assert!(m.violations().is_empty(), "{:?}", m.violations());
        // Acking the pending seq 1 would let the server drop its reply.
        m.on_hello(ResumeExpect::Valid, &hello(Some(s1)));
        m.on_reply(&ack(s1, 1));
        // Nothing pending: the ack point is the last seq.
        m.on_hello(ResumeExpect::Expired, &hello(Some(s2)));
        assert_eq!(m.violations().len(), 1, "{:?}", m.violations());
        assert!(m.violations()[0].contains("last_acked"));
    }

    #[test]
    fn resends_must_be_the_pending_seqs_above_resume_seq() {
        let mut m = ClientModel::new(0, 3);
        let seqs: Vec<u64> = (0..4).map(|_| m.alloc_good()).collect();
        m.on_welcome(ResumeExpect::Valid, Some(true), Some(2), &seqs[2..]);
        assert!(m.violations().is_empty(), "{:?}", m.violations());
        // Re-sending a seq the replay owes would feed the window twice.
        m.on_welcome(ResumeExpect::Valid, Some(true), Some(2), &seqs[1..]);
        assert!(m.violations()[0].contains("re-sent"));
    }

    /// Satellite regression: evicting below the acked watermark keeps
    /// the resolved map bounded by the pending span and leaves the run
    /// fingerprint bit-identical to the never-evicting model — and late
    /// stale duplicates of evicted seqs are benign.
    #[test]
    fn acked_eviction_bounds_memory_without_changing_the_fingerprint() {
        let mut bounded = ClientModel::new(3, 3);
        let mut unbounded = ClientModel::new(3, 3);
        let mut max_resolved = 0usize;
        for round in 0..200u64 {
            let s = bounded.alloc_good();
            assert_eq!(unbounded.alloc_good(), s);
            let f = if round < 2 {
                ack(s, (round + 1) as usize)
            } else {
                imputed(s, vec![vec![round as u32, 7]])
            };
            bounded.on_reply(&f);
            unbounded.on_reply(&f);
            bounded.evict_acked();
            max_resolved = max_resolved.max(bounded.resolved_len());
        }
        assert!(
            max_resolved <= 1,
            "lockstep run must retain at most the newest reply, kept {max_resolved}"
        );
        assert!(unbounded.resolved_len() >= 200);
        assert_eq!(
            bounded.fold_fingerprint(0xfeed),
            unbounded.fold_fingerprint(0xfeed),
            "eviction changed the fingerprint"
        );
        // A stale duplicate of an evicted seq — even with different
        // timing fields — is accepted silently.
        bounded.on_reply(&ack(1, 1));
        assert!(
            bounded.violations().is_empty(),
            "{:?}",
            bounded.violations()
        );
    }

    #[test]
    fn fingerprint_ignores_latency_but_not_series() {
        let mut a = ClientModel::new(0, 2);
        let mut b = ClientModel::new(0, 2);
        let s = a.alloc_good();
        b.alloc_good();
        let mut fa = imputed(s, vec![vec![3, 4]]);
        let fb = imputed(s, vec![vec![3, 4]]);
        if let Frame::Imputed { latency_us, .. } = &mut fa {
            *latency_us = 999_999;
        }
        a.on_reply(&fa);
        b.on_reply(&fb);
        assert_eq!(a.fold_fingerprint(7), b.fold_fingerprint(7));

        let mut c = ClientModel::new(0, 2);
        c.alloc_good();
        c.on_reply(&imputed(s, vec![vec![5, 6]]));
        assert_ne!(a.fold_fingerprint(7), c.fold_fingerprint(7));
    }
}
