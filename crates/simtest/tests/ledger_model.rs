//! The pure session core against the independent oracle: random
//! schedules of send / out-of-order commit / disconnect / resume /
//! duplicate retransmit drive [`fmml_serve::Ledger`] alone — no socket,
//! no thread, no clock — and everything it hands back is fed to
//! [`ClientModel`]. Exactly-once must hold on every schedule, and the
//! same schedules with [`ProtocolBug::ReplayOffByOne`] planted must be
//! caught (a checker that never fires proves nothing).

use fmml_serve::protocol::{decode_frame, encode_frame};
use fmml_serve::{Frame, Ledger, ProtocolBug};
use fmml_simtest::{ClientModel, ResumeExpect};
use proptest::prelude::*;

const WINDOW_INTERVALS: usize = 3;

/// One client, one ledger, and the minimum of a server around it: a
/// count of ingested intervals (the sliding window's warm-up) and the
/// replies that are computed but not yet committed (the worker pool).
struct World {
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
    errors: Vec<String>,
}

fn seq_of(bytes: &[u8]) -> (u64, Frame) {
    let (frame, used) = decode_frame(bytes).unwrap().expect("one whole frame");
    assert_eq!(used, bytes.len());
    match frame {
        Frame::Ack { seq, .. } | Frame::Imputed { seq, .. } => (seq, frame),
        other => panic!("ledger handed back a non-reply: {other:?}"),
    }
}

impl World {
    fn new(bug: Option<ProtocolBug>) -> World {
        World {
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
            errors: Vec::new(),
        }
    }

    /// The server reads `Interval{seq}`: a duplicate is answered from
    /// the ledger, anything else is ingested exactly once.
    fn server_reads(&mut self, seq: u64) {
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
        let last_acked = self.model.last_acked();
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
        let rewind = self
            .model
            .on_welcome(ResumeExpect::Valid, Some(true), Some(resume_seq))
            .expect("a resumed Welcome");
        for seq in self.model.pending_seqs() {
            if seq > rewind {
                self.server_reads(seq);
            }
        }
    }

    fn run(mut self, ops: &[(u8, u64)]) -> Vec<String> {
        for &(op, aux) in ops {
            match op {
                0 | 1 if self.connected => {
                    let seq = self.model.alloc_good();
                    self.server_reads(seq);
                }
                // Lost on the way in: losses are burst suffixes, so the
                // connection dies with the frame.
                2 if self.connected => {
                    self.model.alloc_good();
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
                    self.server_reads(seq);
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
    fn ledger_alone_is_exactly_once(ops in schedules()) {
        let errors = World::new(None).run(&ops);
        prop_assert!(errors.is_empty(), "{errors:?} on {ops:?}");
    }

    /// Self-validation: the property above, with the off-by-one planted
    /// in the one place it lives, must fail.
    #[test]
    #[should_panic(expected = "unresolved seqs")]
    fn ledger_with_replay_off_by_one_is_caught(ops in schedules()) {
        let errors = World::new(Some(ProtocolBug::ReplayOffByOne)).run(&ops);
        prop_assert!(errors.is_empty(), "{errors:?} on {ops:?}");
    }
}
