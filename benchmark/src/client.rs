//! One switch: a connection, its ports, and the two load shapes.
//!
//! A [`Client`] is driven by exactly one generator thread, write then
//! read, no helper threads. In the **open loop** it writes one interval
//! per port on every 50 ms tick whatever the server is doing, and times
//! each reply from the tick's *due* time. In the **closed loop** it keeps
//! one interval outstanding per port and sends a port's next interval
//! when its reply lands. Replies are kept and checked after the phase,
//! outside the timed region.

use crate::catalog::{Workload, TICK};
use crate::spans::Recorder;
use crate::stats::{process_cpu, us};
use fmml_core::streaming::IntervalUpdate;
use fmml_serve::protocol::{
    encode_frame_with, write_bytes, write_frame, Frame, FrameReader, MAX_FRAME_LEN,
};
use fmml_serve::WireCodec;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a phase waits for stragglers after its last send before
/// declaring them lost. Below the router's `pending_timeout` (2 s), past
/// which it would migrate the session.
const DRAIN_GRACE: Duration = Duration::from_millis(1500);

/// One port's replay trace and how far into it the port has sent.
pub struct Port {
    pub trace: Arc<Vec<IntervalUpdate>>,
    pub sent: u32,
}

struct Pending {
    port: u16,
    /// The port's `sent` count when this interval went out (its
    /// position in the wrapped replay).
    pos: u32,
    /// Open loop: the tick's due time. Closed loop: the send time.
    due: Instant,
    /// Open loop: which tick of the phase this interval belongs to.
    tick: Option<u32>,
    parent_span: u64,
}

/// An `Imputed` reply, kept for the after-phase correctness check.
pub struct ReplyRec {
    pub port: u16,
    pub pos: u32,
    pub series: Vec<Vec<u32>>,
    pub full: bool,
    pub enforced: bool,
    pub open: bool,
}

enum Arrived {
    Imputed {
        at: Instant,
        p: Pending,
    },
    Ack,
    /// `Busy` (the server's back-pressure), or `Reject` / an unknown seq
    /// (`rejected`: the server and the harness disagree, always a failure).
    Failed {
        p: Option<Pending>,
        rejected: bool,
    },
}

#[derive(Default)]
pub struct OpenStats {
    /// Due-to-reply latencies of the phase's intervals, ms, tick by tick.
    pub lat_ms: Vec<Vec<f64>>,
    /// Process CPU time when each tick was written, and once more a tick
    /// after the last: consecutive marks bracket one tick's work.
    pub cpu_marks: Vec<Duration>,
    /// How long after each tick's due time the generator wrote it, µs.
    pub gen_late_us: Vec<f64>,
}

pub struct Client {
    tx: TcpStream,
    rx: FrameReader<TcpStream>,
    codec: WireCodec,
    pub ports: Vec<Port>,
    window_intervals: usize,
    next_seq: u64,
    pending: HashMap<u64, Pending>,
    wbuf: Vec<u8>,
    pub log: Vec<ReplyRec>,
    pub rec: Recorder,
    pub handshake: Duration,
    pub attempted: u64,
    /// Intervals answered `Busy`.
    pub busy: u64,
    /// Intervals answered `Reject`, and replies to a seq never sent.
    pub rejected: u64,
    /// Open-loop replies that landed more than a tick after their due time.
    pub late: u64,
    pub lost: u64,
    /// `(port, pos)` of every interval the server refused: it never
    /// entered the port's sliding window, so the next replies on that
    /// port were computed from a window the replay check cannot re-derive.
    pub refused: Vec<(u16, u32)>,
}

impl Client {
    /// Connect and run the `Hello`/`Welcome` handshake for one switch
    /// with `traces.len()` ports.
    pub fn connect(
        addr: SocketAddr,
        wl: &Workload,
        tenant: &str,
        traces: Vec<Arc<Vec<IntervalUpdate>>>,
        rec: Recorder,
    ) -> Client {
        let start = Instant::now();
        let tx = TcpStream::connect(addr).expect("connect to the system under test");
        tx.set_nodelay(true).expect("set TCP_NODELAY");
        let mut rx = FrameReader::new(tx.try_clone().expect("clone socket"));
        let mut tx = tx;
        let queues = traces[0][0].samples.len();
        write_frame(
            &mut tx,
            &Frame::Hello {
                tenant: tenant.to_string(),
                ports: (0..traces.len()).collect(),
                queues,
                interval_len: wl.interval_len,
                window_intervals: wl.window_intervals,
                resume_token: None,
                last_acked: None,
                codecs: Some(WireCodec::advertise()),
            },
        )
        .expect("send Hello");
        tx.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set read timeout");
        let codec = match rx.read_frame().expect("Welcome within 5 s") {
            Frame::Welcome { codec, .. } => codec
                .as_deref()
                .and_then(WireCodec::parse)
                .unwrap_or_default(),
            other => panic!("expected Welcome, got {other:?}"),
        };
        assert_eq!(codec, WireCodec::Bin1, "the benchmark runs on bin1");
        Client {
            tx,
            rx,
            codec,
            ports: traces
                .into_iter()
                .map(|trace| Port { trace, sent: 0 })
                .collect(),
            window_intervals: wl.window_intervals,
            next_seq: 0,
            pending: HashMap::new(),
            wbuf: Vec::with_capacity(16 * 1024),
            log: Vec::new(),
            rec,
            handshake: start.elapsed(),
            attempted: 0,
            busy: 0,
            rejected: 0,
            late: 0,
            lost: 0,
            refused: Vec::new(),
        }
    }

    /// Encode the port's next interval into the write buffer.
    fn queue(&mut self, port: usize, due: Instant, tick: Option<u32>, parent_span: u64) {
        let p = &mut self.ports[port];
        let update = p.trace[p.sent as usize % p.trace.len()].clone();
        self.next_seq += 1;
        let frame = Frame::Interval {
            seq: self.next_seq,
            update,
            trace_id: None,
        };
        let bytes = encode_frame_with(&frame, self.codec, MAX_FRAME_LEN).expect("encode Interval");
        self.wbuf.extend_from_slice(&bytes);
        self.pending.insert(
            self.next_seq,
            Pending {
                port: port as u16,
                pos: p.sent,
                due,
                tick,
                parent_span,
            },
        );
        p.sent += 1;
    }

    fn flush(&mut self) {
        if !self.wbuf.is_empty() {
            write_bytes(&mut self.tx, &self.wbuf).expect("write intervals");
            self.wbuf.clear();
        }
    }

    /// Read one frame, blocking at most `wait`.
    fn recv(&mut self, wait: Duration) -> Option<Arrived> {
        // With bytes already buffered the frame is complete or about to
        // be, so the previous timeout will do: skip the setsockopt.
        if self.rx.pending() == 0 {
            self.tx
                .set_read_timeout(Some(wait.max(Duration::from_micros(50))))
                .expect("set read timeout");
        }
        let frame = match self.rx.poll_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return None,
            Err(e) => panic!("connection to the system under test failed: {e}"),
        };
        let at = Instant::now();
        Some(match frame {
            Frame::Imputed {
                seq,
                port,
                series,
                level,
                enforced,
                ..
            } => match self.pending.remove(&seq) {
                Some(p) if p.port as usize == port => {
                    self.log.push(ReplyRec {
                        port: p.port,
                        pos: p.pos,
                        series,
                        full: level == "full",
                        enforced,
                        open: p.tick.is_some(),
                    });
                    if self.rec.on() {
                        let id = self.rec.open_at("client.op", p.parent_span, p.due);
                        self.rec.close_at(id, at);
                        if p.tick.is_some() {
                            // The tick ends when its last reply lands.
                            self.rec.close_at(p.parent_span, at);
                        }
                    }
                    Arrived::Imputed { at, p }
                }
                _ => Arrived::Failed {
                    p: None,
                    rejected: true,
                },
            },
            Frame::Ack { seq, .. } => match self.pending.remove(&seq) {
                Some(_) => Arrived::Ack,
                None => Arrived::Failed {
                    p: None,
                    rejected: true,
                },
            },
            Frame::Busy { seq, .. } => Arrived::Failed {
                p: self.pending.remove(&seq),
                rejected: false,
            },
            Frame::Reject { seq, .. } => Arrived::Failed {
                p: self.pending.remove(&seq),
                rejected: true,
            },
            other => panic!(
                "unexpected {} frame from the system under test",
                other.tag()
            ),
        })
    }

    /// Warm every untouched port's sliding window (`window_intervals − 1`
    /// intervals, each answered `Ack`), so the next interval on any port
    /// is answered `Imputed`.
    pub fn prime(&mut self) {
        let now = Instant::now();
        for port in 0..self.ports.len() {
            if self.ports[port].sent == 0 {
                for _ in 1..self.window_intervals {
                    self.queue(port, now, None, 0);
                }
            }
        }
        self.flush();
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.pending.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            assert!(!left.is_zero(), "warm-up intervals were not acknowledged");
            match self.recv(left) {
                Some(Arrived::Ack) | None => {}
                Some(_) => panic!("warm-up interval was not answered Ack"),
            }
        }
    }

    /// One interval on `port` of an otherwise idle connection; returns
    /// the round-trip time.
    pub fn round_trip(&mut self, port: usize) -> Duration {
        let start = Instant::now();
        self.queue(port, start, None, 0);
        self.attempted += 1;
        self.flush();
        loop {
            match self.recv(Duration::from_secs(10)) {
                Some(Arrived::Imputed { at, .. }) => return at - start,
                Some(Arrived::Ack) => {}
                Some(Arrived::Failed { .. }) | None => panic!("idle round trip failed"),
            }
        }
    }

    fn note_failed(&mut self, p: Option<Pending>, rejected: bool) -> Option<Pending> {
        if rejected {
            self.rejected += 1;
        } else {
            self.busy += 1;
        }
        if let Some(p) = &p {
            self.refused.push((p.port, p.pos));
        }
        p
    }

    /// Receive until `deadline`, sleeping instead when nothing is owed.
    fn recv_until(&mut self, deadline: Instant, mut on: impl FnMut(&mut Client, Arrived)) {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            if self.pending.is_empty() && self.rx.pending() == 0 {
                std::thread::sleep(left);
                return;
            }
            if let Some(a) = self.recv(left) {
                on(self, a);
            }
        }
    }

    /// After the last send of a phase: wait for what is still owed, then
    /// write the rest off as lost.
    fn drain(&mut self, mut on: impl FnMut(&mut Client, Arrived)) {
        let deadline = Instant::now() + DRAIN_GRACE;
        while !self.pending.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.lost += self.pending.len() as u64;
                self.pending.clear();
                return;
            }
            if let Some(a) = self.recv(left) {
                on(self, a);
            }
        }
    }

    /// Open loop: `ticks` ticks from `t0`, one interval per tick on each
    /// of the first `nports` ports, whatever the server is doing.
    pub fn open_phase(&mut self, t0: Instant, ticks: u32, nports: usize) -> OpenStats {
        let mut st = OpenStats {
            lat_ms: vec![Vec::with_capacity(nports); ticks as usize],
            cpu_marks: Vec::with_capacity(ticks as usize + 1),
            gen_late_us: Vec::with_capacity(ticks as usize),
        };
        let phase = self.rec.open_at("client.open", 0, t0);
        let account = |c: &mut Client, st: &mut OpenStats, a: Arrived| match a {
            Arrived::Imputed { at, p } => {
                let lat = at.saturating_duration_since(p.due);
                if lat > TICK {
                    c.late += 1;
                }
                let tick = p.tick.expect("only open-loop intervals are owed here");
                st.lat_ms[tick as usize].push(lat.as_secs_f64() * 1e3);
            }
            Arrived::Ack => {}
            Arrived::Failed { p, rejected } => {
                c.note_failed(p, rejected);
            }
        };
        for k in 0..ticks {
            let due = t0 + TICK * k;
            self.recv_until(due, |c, a| account(c, &mut st, a));
            st.gen_late_us
                .push(us(Instant::now().saturating_duration_since(due)));
            st.cpu_marks.push(process_cpu());
            let tick = self.rec.open_at("client.tick", phase, due);
            for port in 0..nports {
                self.queue(port, due, Some(k), tick);
            }
            self.attempted += nports as u64;
            self.flush();
        }
        self.recv_until(t0 + TICK * ticks, |c, a| account(c, &mut st, a));
        st.cpu_marks.push(process_cpu());
        self.drain(|c, a| account(c, &mut st, a));
        self.rec.close(phase);
        st
    }

    /// Closed loop for `dur` from `t0`: one interval outstanding on each
    /// of the first `nports` ports. Returns the `Imputed` replies that
    /// landed within the phase.
    pub fn closed_phase(&mut self, t0: Instant, dur: Duration, nports: usize) -> u64 {
        std::thread::sleep(t0.saturating_duration_since(Instant::now()));
        let phase = self.rec.open_at("client.closed", 0, t0);
        let end = t0 + dur;
        let mut landed = 0u64;
        let now = Instant::now();
        for port in 0..nports {
            self.queue(port, now, None, phase);
        }
        self.attempted += nports as u64;
        self.flush();
        loop {
            let left = end.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            let mut got = self.recv(left);
            // Answer every reply already buffered with one write.
            while let Some(a) = got.take() {
                let (port, at) = match a {
                    Arrived::Imputed { at, p } => {
                        landed += u64::from(at < end);
                        (Some(p.port), at)
                    }
                    Arrived::Ack => (None, Instant::now()),
                    Arrived::Failed { p, rejected } => {
                        (self.note_failed(p, rejected).map(|p| p.port), Instant::now())
                    }
                };
                if let Some(port) = port.filter(|_| at < end) {
                    self.queue(port as usize, at, None, phase);
                    self.attempted += 1;
                }
                if self.rx.pending() > 0 {
                    got = self.recv(Duration::from_millis(1));
                }
            }
            self.flush();
        }
        self.drain(|c, a| {
            if let Arrived::Failed { p, rejected } = a {
                c.note_failed(p, rejected);
            }
        });
        self.rec.close(phase);
        landed
    }

    /// Graceful goodbye; the server answers `ByeAck` after draining.
    pub fn bye(&mut self) {
        let bytes = encode_frame_with(&Frame::Bye, self.codec, MAX_FRAME_LEN).expect("encode Bye");
        let _ = write_bytes(&mut self.tx, &bytes);
        let _ = self.tx.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = self.rx.read_frame();
    }
}

/// Ask a node for its `MetricsDump` on a fresh connection (allowed
/// before any handshake) and time the answer.
pub fn metrics_dump(addr: SocketAddr) -> (Duration, String) {
    let mut tx = TcpStream::connect(addr).expect("connect for MetricsDump");
    tx.set_nodelay(true).expect("set TCP_NODELAY");
    tx.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let mut rx = FrameReader::new(tx.try_clone().expect("clone socket"));
    let start = Instant::now();
    write_frame(&mut tx, &Frame::MetricsDump).expect("send MetricsDump");
    match rx.read_frame().expect("MetricsReply within 10 s") {
        Frame::MetricsReply { json } => (start.elapsed(), json),
        other => panic!("expected MetricsReply, got {}", other.tag()),
    }
}
