//! The pure session core against the independent oracle: random
//! schedules of send / out-of-order commit / disconnect / resume /
//! duplicate retransmit drive both halves of the session alone — the
//! client's [`ClientSession`] and the server's [`Ledger`], no socket, no
//! thread, no clock. Every byte the client writes is what the session
//! handed it, and everything either half produces is checked by
//! [`ClientModel`]: each `Hello`'s ack point, each resume's re-sends, each
//! reply. Exactly-once must hold on every schedule, and the same
//! schedules with [`ProtocolBug::ReplayOffByOne`] planted must be caught
//! (a checker that never fires proves nothing).

use fmml_core::streaming::IntervalUpdate;
use fmml_serve::protocol::{decode_frame, encode_frame};
use fmml_serve::session::welcome;
use fmml_serve::{ClientSession, Frame, Identity, Ledger, ProtocolBug, Welcomed, WireCodec};
use fmml_simtest::{ClientModel, ResumeExpect};
use proptest::prelude::*;
use std::collections::BTreeMap;

const WINDOW_INTERVALS: usize = 3;

/// One client session, one ledger, and the minimum of a server around
/// them: a count of ingested intervals (the sliding window's warm-up) and
/// the replies that are computed but not yet committed (the worker pool).
struct World {
    session: ClientSession,
    model: ClientModel,
    ledger: Ledger,
    bug: Option<ProtocolBug>,
    connected: bool,
    /// Encoded replies written to the current connection, unread.
    wire: Vec<Vec<u8>>,
    /// `(seq, encoded reply)` ingested but not yet committed.
    inflight: Vec<(u64, Vec<u8>)>,
    ingested: Vec<u64>,
    /// Seqs the client has read a reply for.
    delivered: Vec<u64>,
    /// Every `Interval` the client wrote, for duplicate retransmits.
    sent: BTreeMap<u64, Vec<u8>>,
    errors: Vec<String>,
}

fn seq_of(bytes: &[u8]) -> (u64, Frame) {
    let (frame, used) = decode_frame(bytes).unwrap().expect("one whole frame");
    assert_eq!(used, bytes.len());
    match frame {
        Frame::Ack { seq, .. } | Frame::Imputed { seq, .. } | Frame::Interval { seq, .. } => {
            (seq, frame)
        }
        other => panic!("unexpected frame on the wire: {other:?}"),
    }
}

fn update() -> IntervalUpdate {
    IntervalUpdate {
        port: 1,
        samples: vec![2, 0],
        maxes: vec![3, 0],
        sent: 5,
        dropped: 0,
        received: 5,
    }
}

impl World {
    fn new(bug: Option<ProtocolBug>) -> World {
        let identity = Identity {
            tenant: "t".into(),
            ports: vec![1],
            queues: 2,
            interval_len: 10,
            window_intervals: WINDOW_INTERVALS,
        };
        let mut world = World {
            session: ClientSession::new(identity, WireCodec::Json),
            model: ClientModel::new(0, WINDOW_INTERVALS),
            // Larger than any schedule: nothing is ever evicted, so a
            // committed seq must stay answerable.
            ledger: Ledger::new(256),
            bug,
            connected: true,
            wire: Vec::new(),
            inflight: Vec::new(),
            ingested: Vec::new(),
            delivered: Vec::new(),
            sent: BTreeMap::new(),
            errors: Vec::new(),
        };
        // The opening: a tokenless Hello, answered fresh.
        world
            .model
            .on_hello(ResumeExpect::Fresh, &world.session.hello());
        let fresh = welcome(1, 50, Some("tok"), None, WireCodec::Json);
        let verdict = world.session.welcome(&fresh);
        assert_eq!(verdict, Some(Welcomed::Fresh { lost: vec![] }));
        world
            .model
            .on_welcome(ResumeExpect::Fresh, Some(false), None, &[]);
        world
    }

    /// The client sends the next interval; `delivered`: it reaches the
    /// server (else it is lost with the connection).
    fn client_sends(&mut self, delivered: bool) {
        let (seq, bytes) = self.session.send(update(), None, ());
        let want = self.model.alloc_good();
        if seq != want {
            self.errors
                .push(format!("session sent seq {seq}, model {want}"));
        }
        self.sent.insert(seq, bytes.clone());
        if delivered {
            self.server_reads(&bytes);
        }
    }

    /// The server reads an `Interval`: a duplicate is answered from the
    /// ledger, anything else is ingested exactly once.
    fn server_reads(&mut self, bytes: &[u8]) {
        let (seq, _) = seq_of(bytes);
        if let Some(bytes) = self.ledger.answered(seq) {
            self.wire.push(bytes);
            return;
        }
        if self.ingested.contains(&seq) {
            self.errors.push(format!("window fed twice with seq {seq}"));
        }
        self.ingested.push(seq);
        let reply = if self.ingested.len() < WINDOW_INTERVALS {
            Frame::Ack {
                seq,
                buffered: self.ingested.len(),
            }
        } else {
            Frame::Imputed {
                seq,
                port: 1,
                series: vec![vec![seq as u32]],
                level: "full".into(),
                enforced: true,
                latency_us: 0,
                trace_id: None,
            }
        };
        self.inflight.push((seq, encode_frame(&reply).unwrap()));
    }

    /// A worker finishes reply `k`: record, *then* write (the write is
    /// lost when no client is attached).
    fn commit(&mut self, k: usize) {
        let (seq, bytes) = self.inflight.remove(k);
        self.ledger.commit(seq, &bytes);
        if self.connected {
            self.wire.push(bytes);
        }
    }

    fn client_reads_all(&mut self) {
        for bytes in std::mem::take(&mut self.wire) {
            let (seq, frame) = seq_of(&bytes);
            self.session.answer(seq);
            self.model.on_reply(&frame);
            self.delivered.push(seq);
        }
    }

    fn disconnect(&mut self) {
        self.connected = false;
        self.wire.clear();
    }

    fn resume(&mut self) {
        // The resume path drains the worker pipeline into the ledger
        // before it snapshots the watermark.
        while !self.inflight.is_empty() {
            self.commit(self.inflight.len() - 1);
        }
        let hello = self.session.hello();
        self.model.on_hello(ResumeExpect::Valid, &hello);
        let Frame::Hello {
            last_acked: Some(last_acked),
            ..
        } = hello
        else {
            panic!("a resuming Hello acknowledges: {hello:?}");
        };
        let (resume_seq, replay) = self.ledger.resume(Some(last_acked), self.bug);
        let mut prev = last_acked;
        for bytes in &replay {
            let (seq, _) = seq_of(bytes);
            if seq <= prev {
                self.errors.push(format!(
                    "replay not seq-ordered past last_acked={last_acked}: {seq} after {prev}"
                ));
            }
            prev = seq;
        }
        self.connected = true;
        self.wire = replay;
        let resumed = welcome(1, 50, Some("tok"), Some(resume_seq), WireCodec::Json);
        let Some(Welcomed::Resumed { resend }) = self.session.welcome(&resumed) else {
            panic!("a resumed Welcome");
        };
        let resent: Vec<u64> = resend.iter().map(|(seq, _)| *seq).collect();
        self.model
            .on_welcome(ResumeExpect::Valid, Some(true), Some(resume_seq), &resent);
        for (seq, bytes) in resend {
            if bytes != self.sent[&seq] {
                self.errors
                    .push(format!("seq {seq} re-sent with other bytes"));
            }
            self.server_reads(&bytes);
        }
    }

    fn run(mut self, ops: &[(u8, u64)]) -> Vec<String> {
        for &(op, aux) in ops {
            match op {
                0 | 1 if self.connected => self.client_sends(true),
                // Lost on the way in: losses are burst suffixes, so the
                // connection dies with the frame.
                2 if self.connected => {
                    self.client_sends(false);
                    self.disconnect();
                }
                3 if !self.inflight.is_empty() => {
                    self.commit(aux as usize % self.inflight.len());
                }
                4 if self.connected => self.client_reads_all(),
                5 if self.connected => self.disconnect(),
                5 => self.resume(),
                // A late duplicate of an interval the client already
                // holds the answer to.
                6 if self.connected && !self.delivered.is_empty() => {
                    let seq = self.delivered[aux as usize % self.delivered.len()];
                    let bytes = self.sent[&seq].clone();
                    self.server_reads(&bytes);
                }
                _ => {}
            }
        }
        // Faultless epilogue: reconnect, let every reply commit and land.
        if !self.connected {
            self.resume();
        }
        while !self.inflight.is_empty() {
            self.commit(0);
        }
        self.client_reads_all();
        if self.session.pending() != 0 {
            self.errors.push(format!(
                "session still waits on {} seqs",
                self.session.pending()
            ));
        }
        self.model.final_check();
        self.errors.extend_from_slice(self.model.violations());
        self.errors
    }
}

fn schedules() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..7, 0u64..1000), 1..80)
}

proptest! {
    #[test]
    fn client_session_and_ledger_are_exactly_once(ops in schedules()) {
        let errors = World::new(None).run(&ops);
        prop_assert!(errors.is_empty(), "{errors:?} on {ops:?}");
    }

    /// Self-validation: the property above, with the off-by-one planted
    /// in the one place it lives, must fail.
    #[test]
    #[should_panic(expected = "unresolved seqs")]
    fn client_session_and_ledger_with_replay_off_by_one_are_caught(ops in schedules()) {
        let errors = World::new(Some(ProtocolBug::ReplayOffByOne)).run(&ops);
        prop_assert!(errors.is_empty(), "{errors:?} on {ops:?}");
    }
}
