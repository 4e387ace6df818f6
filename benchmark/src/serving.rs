//! The serving run shape: warm-up, then rounds alternating an open-loop
//! phase (latency, CPU per op at the fixed offered rate) and a
//! closed-loop phase (capacity). Two generator threads, one per
//! connection; the main thread only starts phases.
//!
//! The open loop is measured tick by tick and a round's value is the
//! median over its ticks: on a shared box a neighbour slows whole ticks
//! at a time (a forward pass reads 16 ms instead of 8 for three or four
//! ticks in a row), and a statistic of the pooled replies past the 75th
//! percentile reads how many ticks were hit, not the program.

use crate::catalog::{CONNECTIONS, TICK, WARM_UP};
use crate::client::Client;
use crate::deploy::{Deployment, NodeStats};
use crate::spans::Recorder;
use crate::stats::{median, ms, process_cpu, quantile, thread_cpu};
use crate::world::{verify, Verdict, World};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Server-side tracing (and client spans) were on for this round.
    pub traced: bool,
    /// `Imputed` replies per second of the closed-loop phase, both
    /// connections.
    pub capacity_per_s: f64,
    /// Process CPU between one open-loop tick and the next, per op
    /// offered in a tick, ms: median over the phase's ticks.
    pub cpu_ms_per_op: f64,
    /// Median and 90th percentile of the replies of one connection's
    /// tick, due-to-reply, ms: one value per connection and tick.
    pub tick_p50_ms: Vec<f64>,
    pub tick_p90_ms: Vec<f64>,
    /// Every due-to-reply latency of the open-loop phase, ms.
    pub lat_ms: Vec<f64>,
}

#[derive(Default)]
pub struct ServeOutcome {
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub busy: u64,
    pub rejected: u64,
    pub late: u64,
    pub lost: u64,
    pub verdict: Verdict,
    pub gen_late_us: Vec<f64>,
    /// CPU of the generator threads / of the whole process, over the
    /// measured phases.
    pub gen_cpu: Duration,
    pub proc_cpu: Duration,
    /// Idle round trips on connection 0, µs (only when asked for).
    pub rtt_idle_us: Vec<f64>,
    pub handshake: Duration,
    pub nodes: NodeStats,
    pub recorders: Vec<Recorder>,
}

impl ServeOutcome {
    /// Ops lost, rejected or answered wrongly. A reply that lands more
    /// than a tick after it was due (`late`), and the `Busy` the next
    /// tick's intervals then meet at the default in-flight cap (`busy`),
    /// are counted and printed, not failed: on a shared box they are a
    /// neighbour stalling the VM for a tick, a few times in 100 000 ops,
    /// in some runs and not in others.
    pub fn failed(&self) -> u64 {
        self.lost + self.rejected + self.verdict.wrong
    }

    /// One value per round with tracing `traced`.
    pub fn per_round<'a>(
        &'a self,
        traced: bool,
        f: impl Fn(&Round) -> f64 + 'a,
    ) -> impl Iterator<Item = f64> + 'a {
        self.rounds
            .iter()
            .filter(move |r| r.traced == traced)
            .map(f)
    }
}

/// What one generator thread brings back.
struct Generated {
    client: Client,
    /// Per round: open-loop latencies tick by tick, ms, and the process
    /// CPU marks at the ticks.
    lat: Vec<Vec<Vec<f64>>>,
    cpu_marks: Vec<Vec<Duration>>,
    /// Per round: replies landed within the closed-loop phase.
    closed: Vec<u64>,
    gen_late: Vec<f64>,
    cpu: Duration,
    verdict: Verdict,
}

pub struct Plan {
    pub phase: Duration,
    pub rounds: usize,
    /// Turn `fmml_obs` tracing and client spans on for every other round.
    pub trace_odd_rounds: bool,
    /// Idle round trips to time before the warm-up.
    pub idle_round_trips: usize,
    pub epoch: Instant,
}

/// Drive `dep` with the world's traffic according to `plan`. Sessions
/// are opened in connection order so router placement repeats.
pub fn run(world: &Arc<World>, dep: &Deployment, plan: &Plan) -> ServeOutcome {
    let wl = world.wl;
    let before = dep.sessions_per_node();
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|c| {
            Client::connect(
                dep.addr(),
                wl,
                &format!("switch-{c}"),
                world.traces_of(c),
                Recorder::new(plan.epoch, 1 + c as u32, false),
            )
        })
        .collect();
    let placed: Vec<u64> = dep
        .sessions_per_node()
        .iter()
        .zip(&before)
        .map(|(now, then)| now - then)
        .collect();
    assert!(
        placed
            .iter()
            .all(|&n| n as usize * placed.len() == CONNECTIONS),
        "sessions were not placed evenly across nodes: {placed:?}"
    );
    let handshake = clients[0].handshake;

    let mut out = ServeOutcome {
        handshake,
        ..ServeOutcome::default()
    };
    clients[0].prime();
    for _ in 0..plan.idle_round_trips {
        out.rtt_idle_us
            .push(crate::stats::us(clients[0].round_trip(0)));
    }

    // Phase hand-shake: main publishes the start instant, everyone
    // meets at `go`, generators run the phase, everyone meets at `done`.
    let go = Barrier::new(CONNECTIONS + 1);
    let done = Barrier::new(CONNECTIONS + 1);
    let t0 = Mutex::new(Instant::now());
    let ticks = (plan.phase.as_secs_f64() / TICK.as_secs_f64())
        .round()
        .max(1.0) as u32;
    let warm = plan.phase.min(WARM_UP);
    let mut rounds = vec![Round::default(); plan.rounds];

    let finished: Vec<Generated> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .drain(..)
            .enumerate()
            .map(|(conn, mut c)| {
                let (go, done, t0) = (&go, &done, &t0);
                let plan = &plan;
                let world = &world;
                s.spawn(move || {
                    c.prime();
                    go.wait();
                    let start = *t0.lock().expect("t0 lock");
                    c.closed_phase(start, warm, wl.closed_ports);
                    done.wait();
                    let cpu0 = thread_cpu();
                    let mut lat = Vec::new();
                    let mut cpu_marks = Vec::new();
                    let mut closed = Vec::new();
                    let mut gen_late = Vec::new();
                    for r in 0..plan.rounds {
                        c.rec.set_on(plan.trace_odd_rounds && r % 2 == 1);
                        go.wait();
                        let start = *t0.lock().expect("t0 lock");
                        let st = c.open_phase(start, ticks, wl.open_ports);
                        done.wait();
                        gen_late.extend(st.gen_late_us);
                        lat.push(st.lat_ms);
                        cpu_marks.push(st.cpu_marks);
                        go.wait();
                        let start = *t0.lock().expect("t0 lock");
                        let landed = c.closed_phase(start, plan.phase, wl.closed_ports);
                        done.wait();
                        closed.push(landed);
                    }
                    let cpu = thread_cpu().saturating_sub(cpu0);
                    c.bye();
                    let verdict = verify(world, conn, &c.log, &c.refused);
                    Generated {
                        client: c,
                        lat,
                        cpu_marks,
                        closed,
                        gen_late,
                        cpu,
                        verdict,
                    }
                })
            })
            .collect();

        let start_phase = |traced: bool| {
            fmml_obs::trace::set_enabled(traced);
            *t0.lock().expect("t0 lock") = Instant::now() + Duration::from_millis(5);
            go.wait();
        };
        start_phase(false);
        done.wait();
        let proc0 = process_cpu();
        for (r, round) in rounds.iter_mut().enumerate() {
            round.traced = plan.trace_odd_rounds && r % 2 == 1;
            start_phase(round.traced);
            done.wait();
            start_phase(round.traced);
            done.wait();
        }
        fmml_obs::trace::set_enabled(false);
        out.proc_cpu = process_cpu().saturating_sub(proc0);
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });

    out.nodes = dep.stats();
    let per_tick = (CONNECTIONS * wl.open_ports) as f64;
    for (conn, g) in finished.into_iter().enumerate() {
        for (r, round) in rounds.iter_mut().enumerate() {
            for tick in &g.lat[r] {
                if !tick.is_empty() {
                    round.tick_p50_ms.push(quantile(tick, 0.5));
                    round.tick_p90_ms.push(quantile(tick, 0.9));
                    round.lat_ms.extend(tick);
                }
            }
            // Both connections tick together; connection 0 keeps the time.
            if conn == 0 {
                let cpu: Vec<f64> = g.cpu_marks[r]
                    .windows(2)
                    .map(|w| ms(w[1].saturating_sub(w[0])))
                    .collect();
                round.cpu_ms_per_op = median(&cpu) / per_tick;
            }
            round.capacity_per_s += g.closed[r] as f64 / plan.phase.as_secs_f64();
        }
        let c = g.client;
        out.attempted += c.attempted;
        out.busy += c.busy;
        out.rejected += c.rejected;
        out.late += c.late;
        out.lost += c.lost;
        out.gen_late_us.extend(g.gen_late);
        out.gen_cpu += g.cpu;
        out.verdict.merge(g.verdict);
        out.recorders.push(c.rec);
    }
    out.rounds = rounds;
    out
}
