//! Per-layer probes of the traced run: every number here comes from
//! timing calls into the crates' public functions, from outside, on
//! operations sampled from the workload's own traffic.

use crate::catalog::{CONNECTIONS, RING_SEED};
use crate::offline::{self, Problem};
use crate::spans::Recorder;
use crate::stats::us;
use crate::world::{window_of, World, TRAIN_LR};
use fmml_cluster::HashRing;
use fmml_core::imputer::Imputer;
use fmml_core::streaming::StreamingImputer;
use fmml_core::train::{train, TrainConfig};
use fmml_fm::cem::{
    enforce_degraded_with, fast_engine, interval_problem, CemEngine, DegradationLevel,
    EnforceOptions, LadderConfig, SolutionCache,
};
use fmml_fm::packet_model::{self, Arrival, PacketModelConfig};
use fmml_nn::kernel::{self, GemmOpts};
use fmml_nn::tape;
use fmml_serve::protocol::{decode_payload, encode_frame_with, Frame, HEADER_LEN, MAX_FRAME_LEN};
use fmml_serve::WireCodec;
use fmml_smt::solver::Budget;
use fmml_telemetry::{sanitize_window, SanitizeConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-time budget of the single-threaded replay.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);
const REPLAY_MAX_OPS: usize = 2000;
/// Minimum measured time of a tight codec/GEMM loop.
const LOOP_MIN: Duration = Duration::from_millis(20);
/// SMT probes on a *serving* workload are off its request path; they
/// are bounded so a 50-step interval cannot eat the run.
const SMT_PROBE_BUDGET: Duration = Duration::from_millis(600);
const SMT_PROBE_TIMEOUT: Duration = Duration::from_millis(200);

/// Mean per-op cost of each replayed stage, µs, plus what rode along.
#[derive(Default)]
pub struct Replay {
    pub ops: usize,
    pub decode_us: f64,
    /// `StreamingImputer::try_prepare`, forward pass included.
    pub prepare_total_us: f64,
    pub forward_us: f64,
    pub ladder_us: f64,
    pub check_us: f64,
    pub encode_us: f64,
    pub fast_interval_us: f64,
    pub raw_violation_share: f64,
    pub fmas_per_forward: f64,
    pub tape_pool_hit_share: f64,
    /// The newest interval of every replayed op, as an offline problem.
    pub problems: Vec<Problem>,
    pub intervals: Vec<Frame>,
    pub replies: Vec<Frame>,
}

impl Replay {
    /// Window bookkeeping and constraint extraction around the forward.
    pub fn prepare_us(&self) -> f64 {
        (self.prepare_total_us - self.forward_us).max(0.0)
    }

    /// What one op costs when replayed single-threaded through the
    /// public functions: decode + prepare (forward inside) + ladder +
    /// check + encode.
    pub fn attributed_us(&self) -> f64 {
        self.decode_us + self.prepare_total_us + self.ladder_us + self.check_us + self.encode_us
    }
}

/// Replay sampled operations one at a time through the same public
/// functions the server calls, with a span around each call.
pub fn replay(world: &World, rec: &mut Recorder) -> Replay {
    let wl = world.wl;
    let (il, wi) = (wl.interval_len, wl.window_intervals);
    let ports = wl.ports_per_connection();
    let cache = SolutionCache::new(fmml_fm::cem::cache::DEFAULT_CAPACITY);
    let ladder = LadderConfig::default();
    let root = rec.open("replay", 0);
    let mut r = Replay::default();
    let mut raw_bad = 0usize;
    let (mut k_fmas, mut t_hits, mut t_misses) = (0u64, 0u64, 0u64);
    let started = Instant::now();
    while r.ops < REPLAY_MAX_OPS && (r.ops < 8 || started.elapsed() < REPLAY_BUDGET) {
        let i = r.ops;
        let (conn, port) = (i % CONNECTIONS, (i / CONNECTIONS) % ports);
        let pos = (wi - 1 + (i / (CONNECTIONS * ports)) * 7) as u32;
        let history = world.history(conn, port, pos);
        let op = rec.open("replay.op", root);

        let interval = Frame::Interval {
            seq: i as u64 + 1,
            update: history[wi - 1].clone(),
            trace_id: None,
        };
        let wire = encode_frame_with(&interval, WireCodec::Bin1, MAX_FRAME_LEN).expect("encode");
        let (decoded, d) = rec.time("replay.decode", op, || decode_payload(&wire[HEADER_LEN..]));
        r.decode_us += us(d);
        let Ok(Frame::Interval { update, .. }) = decoded else {
            panic!("bin1 Interval did not round-trip");
        };

        let mut imputer = StreamingImputer::new(
            Arc::clone(&world.model),
            CemEngine::Fast,
            port,
            update.samples.len(),
            il,
            wi,
        );
        for u in &history[..wi - 1] {
            imputer.try_prepare(u.clone()).expect("well-formed trace");
        }
        let (prepared, d) = rec.time("replay.prepare", op, || imputer.try_prepare(update));
        r.prepare_total_us += us(d);
        let prepared = prepared
            .expect("well-formed trace")
            .expect("window is full");

        let window = window_of(&history, il);
        let (k0, t0) = (kernel::stats(), tape::stats());
        let (imputed, d) = rec.time("replay.forward", op, || world.model.impute(&window));
        r.forward_us += us(d);
        let (kd, td) = (kernel::stats() - k0, tape::stats() - t0);
        k_fmas += kd.fmas;
        t_hits += td.buf_hits;
        t_misses += td.buf_misses;
        assert!(
            imputed == prepared.imputed,
            "forward pass is not deterministic"
        );

        let c = &prepared.constraints;
        raw_bad += usize::from(
            c.c1_error(&imputed) > 0.0 || c.c2_error(&imputed) > 0.0 || c.c3_error(&imputed) > 0.0,
        );
        let (out, d) = rec.time("replay.ladder", op, || {
            enforce_degraded_with(c, &imputed, &ladder, &EnforceOptions::new(1, Some(&cache)))
        });
        r.ladder_us += us(d);
        let (ok, d) = rec.time("replay.check", op, || {
            out.effective_constraints(c).satisfied_exact(&out.corrected)
        });
        r.check_us += us(d);
        assert!(ok, "ladder output violates its constraints");
        let level = prepared.newest_level(&out.levels);

        let reply = Frame::Imputed {
            seq: i as u64 + 1,
            port,
            series: prepared.newest_interval(&out.corrected),
            level: level.label().to_string(),
            enforced: level != DegradationLevel::MeasurementRelaxed,
            latency_us: 0,
            trace_id: None,
        };
        let (_, d) = rec.time("replay.encode", op, || {
            encode_frame_with(&reply, WireCodec::Bin1, MAX_FRAME_LEN)
        });
        r.encode_us += us(d);
        rec.close(op);

        let p = interval_problem(c, &imputed, wi - 1);
        let t = Instant::now();
        let fast = black_box(fast_engine::solve(black_box(&p)));
        r.fast_interval_us += us(t.elapsed());
        if let Some(fast) = fast {
            r.problems.push(Problem {
                constraints: crate::world::constraints_of(&history[wi - 1], il),
                target: imputed
                    .iter()
                    .map(|q| q[(wi - 1) * il..].to_vec())
                    .collect(),
                fast_objective: fast.objective,
            });
        }
        r.intervals.push(interval);
        r.replies.push(reply);
        r.ops += 1;
    }
    rec.close(root);
    let n = r.ops as f64;
    for v in [
        &mut r.decode_us,
        &mut r.prepare_total_us,
        &mut r.forward_us,
        &mut r.ladder_us,
        &mut r.check_us,
        &mut r.encode_us,
        &mut r.fast_interval_us,
    ] {
        *v /= n;
    }
    r.raw_violation_share = raw_bad as f64 / n;
    r.fmas_per_forward = k_fmas as f64 / n;
    r.tape_pool_hit_share = t_hits as f64 / (t_hits + t_misses).max(1) as f64;
    r
}

/// Repeat `f` over `items` until [`LOOP_MIN`] has passed; ns per call.
fn ns_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < LOOP_MIN {
        for it in items {
            f(it);
        }
        calls += items.len() as u64;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

#[derive(Debug, Clone, Copy, Default)]
pub struct Codec {
    pub interval_dec_ns: f64,
    pub imputed_enc_ns: f64,
    pub imputed_bytes: f64,
}

/// Decode the replayed `Interval`s and encode the replayed `Imputed`s in
/// one codec, in tight loops.
pub fn codec(r: &Replay, codec: WireCodec) -> Codec {
    let wires: Vec<Vec<u8>> = r
        .intervals
        .iter()
        .map(|f| encode_frame_with(f, codec, MAX_FRAME_LEN).expect("encode"))
        .collect();
    let bytes: usize = r
        .replies
        .iter()
        .map(|f| {
            encode_frame_with(f, codec, MAX_FRAME_LEN)
                .expect("encode")
                .len()
        })
        .sum();
    Codec {
        interval_dec_ns: ns_per_call(&wires, |w| {
            black_box(decode_payload(black_box(&w[HEADER_LEN..])).expect("decode"));
        }),
        imputed_enc_ns: ns_per_call(&r.replies, |f| {
            black_box(encode_frame_with(black_box(f), codec, MAX_FRAME_LEN).expect("encode"));
        }),
        imputed_bytes: bytes as f64 / r.replies.len() as f64,
    }
}

/// GFLOP/s of the blocked GEMM at the model's feed-forward shape
/// (`[window_len, d_model] × [d_model, ff_dim]`).
pub fn gemm_gflops(world: &World) -> f64 {
    let cfg = &world.model.model.cfg;
    let (m, k, n) = (world.wl.window_len(), cfg.d_model, cfg.ff_dim);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 * 0.25).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 * 0.5).collect();
    let mut out = vec![0.0f32; m * n];
    let ns = ns_per_call(&[()], |_| {
        kernel::gemm_nn(
            black_box(&a),
            black_box(&b),
            &mut out,
            m,
            k,
            n,
            GemmOpts::default(),
        );
        black_box(&out);
    });
    2.0 * (m * k * n) as f64 / ns
}

/// Wall time of one plain (EMD, no KAL) epoch over the training set, ms.
pub fn plain_epoch_ms(world: &World) -> f64 {
    let cfg = TrainConfig {
        epochs: 1,
        lr: TRAIN_LR,
        ..TrainConfig::default()
    };
    let t = Instant::now();
    black_box(train(&world.train_windows, world.scales, &cfg));
    t.elapsed().as_secs_f64() * 1e3
}

/// `sanitize_window` over the (clean) training windows, µs per window.
pub fn sanitize_us(world: &World) -> f64 {
    let sim = (world.wl.sim)();
    let cfg = SanitizeConfig::for_sim(sim.buffer_packets, world.wl.interval_len);
    let mut copies = world.train_windows.clone();
    let t = Instant::now();
    for w in &mut copies {
        black_box(sanitize_window(w, &cfg));
    }
    us(t.elapsed()) / copies.len() as f64
}

/// Consistent-hash placement of a router-style token, ns per call.
pub fn ring_assign_ns() -> f64 {
    let mut ring = HashRing::new(RING_SEED, 64);
    ring.add("b0");
    ring.add("b1");
    let keys: Vec<String> = (0..64u64).map(|i| format!("rtok-{i:016x}")).collect();
    ns_per_call(&keys, |k| {
        black_box(ring.assign(black_box(k)));
    })
}

/// The §2.3 packet-level model on a fixed 4-step, 2-port scenario, ms
/// (8 steps already take a second).
pub fn packet_model_ms() -> f64 {
    let cfg = PacketModelConfig {
        num_ports: 2,
        queues_per_port: 2,
        buffer: 16,
        time_steps: 4,
        interval_len: 2,
        strict_priority: true,
    };
    let arrivals: Vec<Arrival> = (0..2)
        .flat_map(|step| {
            (0..2).map(move |input_port| Arrival {
                step,
                input_port,
                queue: input_port * 2,
            })
        })
        .collect();
    let tr = packet_model::reference_execution(&cfg, &arrivals);
    let t = Instant::now();
    let out = packet_model::solve(&cfg, &tr.measurements, Budget::default());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(
        matches!(out, packet_model::PacketModelOutcome::Sat { .. }),
        "consistent measurements must be satisfiable"
    );
    ms
}

/// The SMT rung on a prefix of `problems` sized to [`SMT_PROBE_BUDGET`]
/// (serving workloads, where SMT is off the request path).
pub fn smt_probe(problems: &[Problem]) -> offline::OfflineOutcome {
    let budget = Budget {
        timeout: Some(SMT_PROBE_TIMEOUT),
        ..Budget::default()
    };
    let pilot = offline::run(&problems[..1], Duration::ZERO, 1, budget);
    let first_ms = pilot.rounds[0].solve_ms[0].max(0.01);
    let n = ((SMT_PROBE_BUDGET.as_secs_f64() * 1e3 / first_ms) as usize).clamp(4, 64);
    offline::run(
        &problems[..n.min(problems.len())],
        Duration::ZERO,
        1,
        budget,
    )
}
