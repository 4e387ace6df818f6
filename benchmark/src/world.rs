//! Seed → world: the training set and model the set-up builds, the
//! per-port replay traces every workload draws its operations from, and
//! the check that every reply is right.

use crate::catalog::{Kind, Workload, BITWISE_SAMPLE_EVERY, CONNECTIONS, TRAFFIC_LOAD};
use crate::client::{Client, ReplyRec};
use crate::deploy::Deployment;
use crate::spans::Recorder;
use fmml_core::imputer::Imputer;
use fmml_core::kal::KalConfig;
use fmml_core::streaming::{IntervalUpdate, StreamingImputer};
use fmml_core::train::{train, TrainConfig};
use fmml_core::transformer_imputer::{Scales, TransformerImputer};
use fmml_fm::cem::{
    self, enforce_degraded_with, CemEngine, DegradationLevel, EnforceOptions, LadderConfig,
};
use fmml_fm::WindowConstraints;
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{GroundTruth, SimConfig, Simulation};
use fmml_smt::solver::Budget;
use fmml_telemetry::{windows_from_trace, PortWindow};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Training hyper-parameters, frozen. The learning rate and the KAL
/// weight are the largest at which the model stays alive (non-zero
/// output) on every seed tried; at the repo defaults (3e-3, μ = 0.5) a
/// data set this small collapses it to all-zero, which would make every
/// CEM problem the same trivial one.
pub const TRAIN_LR: f32 = 3e-4;
pub const TRAIN_KAL: KalConfig = KalConfig {
    mu: 0.03,
    multiplier_lr: 0.03,
    tanh_scale: 50.0,
};
const TRAIN_SEED: u64 = 1;
/// Seed of the training traffic. The model is part of the system a run
/// sets up, not of its input: `--seed` draws the replay traces only, so
/// every seed faces the same forward pass and a live model (a seed whose
/// training traffic happens to collapse the model would turn every CEM
/// problem into the same trivial one).
const TRAIN_TRAFFIC_SEED: u64 = 1;

/// The SMT rung as the offline workload runs it: default budget, which
/// has no wall-clock limit, so the work per problem is deterministic.
pub fn smt_ladder(budget: Budget) -> LadderConfig {
    LadderConfig {
        engine: CemEngine::Smt { budget },
        deadline: None,
        escalation_factor: LadderConfig::default().escalation_factor,
        breaker: None,
    }
}

fn splitmix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn simulate(sim: &SimConfig, seed: u64, ms: u64) -> GroundTruth {
    Simulation::new(
        sim.clone(),
        TrafficConfig::websearch_incast(sim.num_ports, TRAFFIC_LOAD),
        seed,
    )
    .run_ms(ms)
}

/// An offline-style window over consecutive updates of one port (the
/// fine truth is unknown online and stays zero).
pub fn window_of(updates: &[IntervalUpdate], interval_len: usize) -> PortWindow {
    let nq = updates[0].samples.len();
    let col = |f: &dyn Fn(&IntervalUpdate) -> u32| updates.iter().map(f).collect::<Vec<u32>>();
    PortWindow {
        port: updates[0].port,
        start_bin: 0,
        interval_len,
        queue_ids: (0..nq).collect(),
        truth: vec![vec![0.0; updates.len() * interval_len]; nq],
        samples: (0..nq).map(|q| col(&|u| u.samples[q])).collect(),
        maxes: (0..nq).map(|q| col(&|u| u.maxes[q])).collect(),
        sent: col(&|u| u.sent),
        dropped: col(&|u| u.dropped),
        received: col(&|u| u.received),
    }
}

/// The measurements of one update as a one-interval constraint set.
pub fn constraints_of(u: &IntervalUpdate, interval_len: usize) -> WindowConstraints {
    WindowConstraints {
        interval_len,
        len: interval_len,
        maxes: u.maxes.iter().map(|&m| vec![m]).collect(),
        samples: u.samples.iter().map(|&s| vec![s]).collect(),
        sent: vec![u.sent],
    }
}

/// FNV fingerprint of every parameter bit of a model.
pub fn model_fingerprint(model: &TransformerImputer) -> u64 {
    let params: Vec<Vec<u32>> = (0..model.store.len())
        .map(|id| {
            model
                .store
                .value(id)
                .data
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    cem::hash_u32_series(&params)
}

/// Where one cold set-up spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub total: Duration,
    pub netsim: Duration,
    pub windows: Duration,
    pub train: Duration,
    pub spawn: Duration,
    pub first_reply: Duration,
    pub raw_windows: usize,
    /// GEMM shards the training ran on other threads.
    pub train_par_shards: u64,
}

/// What a set-up leaves behind.
pub struct Ready {
    pub times: SetupTimes,
    pub scales: Scales,
    pub train_windows: Vec<PortWindow>,
    pub model: Arc<TransformerImputer>,
    /// `None` on the offline workload.
    pub deployment: Option<Deployment>,
}

/// One cold set-up, as an operator pays for it: simulate training
/// traffic → telemetry windows → fixed-epoch KAL training → spawn the
/// system → first corrected series back.
pub fn set_up(wl: &'static Workload, rec: &mut Recorder) -> Ready {
    let sim = (wl.sim)();
    let start = Instant::now();
    let root = rec.open_at("setup", 0, start);

    let (gt, netsim) = rec.time("setup.netsim", root, || {
        simulate(&sim, TRAIN_TRAFFIC_SEED, wl.train_sim_ms)
    });
    let ((train_windows, raw_windows), windows) = rec.time("setup.windows", root, || {
        let all = windows_from_trace(&gt, wl.window_len(), wl.interval_len, wl.window_len());
        let raw = all.len();
        let active: Vec<PortWindow> = all.into_iter().filter(|w| w.has_activity()).collect();
        assert!(!active.is_empty(), "no active training window");
        // Always exactly `train_windows`, whatever the traffic seed.
        let fixed: Vec<PortWindow> = active
            .iter()
            .cycle()
            .take(wl.train_windows)
            .cloned()
            .collect();
        (fixed, raw)
    });
    let scales = Scales {
        qlen: sim.buffer_packets as f32,
        count: (sim.pkts_per_ms() * wl.interval_len as u64) as f32,
    };
    let k0 = fmml_nn::kernel::stats();
    let (model, train_time) = rec.time("setup.train", root, || {
        let cfg = TrainConfig {
            epochs: wl.train_epochs,
            lr: TRAIN_LR,
            kal: Some(TRAIN_KAL),
            seed: TRAIN_SEED,
            ..TrainConfig::default()
        };
        Arc::new(train(&train_windows, scales, &cfg).0)
    });

    let first: Vec<IntervalUpdate> = (0..wl.window_intervals)
        .map(|k| {
            let mut u = IntervalUpdate::from_window(&train_windows[0], k);
            u.port = 0;
            u
        })
        .collect();
    let mut times = SetupTimes {
        netsim,
        windows,
        train: train_time,
        raw_windows,
        train_par_shards: (fmml_nn::kernel::stats() - k0).parallel_shards,
        ..SetupTimes::default()
    };
    let deployment = match wl.kind {
        Kind::Serve(route) => {
            let (dep, spawn) = rec.time("setup.spawn", root, || Deployment::spawn(&model, route));
            let (_, first_reply) = rec.time("setup.first_reply", root, || {
                let mut c = Client::connect(
                    dep.addr(),
                    wl,
                    "setup",
                    vec![Arc::new(first.clone())],
                    Recorder::new(start, 0, false),
                );
                c.prime();
                c.round_trip(0);
                c.bye();
            });
            times.spawn = spawn;
            times.first_reply = first_reply;
            Some(dep)
        }
        Kind::OfflineSmt => {
            let (_, first_reply) = rec.time("setup.first_reply", root, || {
                let w = window_of(&first, wl.interval_len);
                let imputed = model.impute(&w);
                enforce_degraded_with(
                    &WindowConstraints::from_window(&w),
                    &imputed,
                    &smt_ladder(Budget::default()),
                    &EnforceOptions::default(),
                )
            });
            times.first_reply = first_reply;
            None
        }
    };
    rec.close(root);
    times.total = start.elapsed();
    Ready {
        times,
        scales,
        train_windows,
        model,
        deployment,
    }
}

/// Everything a measured run needs, derived from the seed alone.
pub struct World {
    pub wl: &'static Workload,
    pub seed: u64,
    pub model: Arc<TransformerImputer>,
    pub model_fp: u64,
    pub scales: Scales,
    pub train_windows: Vec<PortWindow>,
    /// `CONNECTIONS × ports_per_connection` replay traces, connection
    /// major; every port has its own, relabelled to its port number.
    pub traces: Vec<Arc<Vec<IntervalUpdate>>>,
    /// Wall time of generating the replay traces.
    pub gen: Duration,
}

impl World {
    pub fn new(wl: &'static Workload, seed: u64, ready: &Ready) -> World {
        let sim = (wl.sim)();
        let per_conn = wl.ports_per_connection();
        let total_ports = CONNECTIONS * per_conn;
        let runs = total_ports.div_ceil(sim.num_ports);
        let ms = (wl.trace_intervals * wl.interval_len) as u64;
        let start = Instant::now();
        // Two generator cores, two simulations at a time.
        let mut truths: Vec<Option<GroundTruth>> = (0..runs).map(|_| None).collect();
        for pair in truths.chunks_mut(2).enumerate() {
            let (i, slots) = pair;
            std::thread::scope(|s| {
                for (j, slot) in slots.iter_mut().enumerate() {
                    let sim = &sim;
                    let k = (2 * i + j) as u64;
                    s.spawn(move || *slot = Some(simulate(sim, splitmix(seed, k + 1), ms)));
                }
            });
        }
        let mut traces = Vec::with_capacity(total_ports);
        'fill: for gt in truths.iter().flatten() {
            let ws = windows_from_trace(gt, ms as usize, wl.interval_len, ms as usize);
            for w in &ws {
                let label = traces.len() % per_conn;
                let trace: Vec<IntervalUpdate> = (0..w.intervals())
                    .map(|k| {
                        let mut u = IntervalUpdate::from_window(w, k);
                        u.port = label;
                        u
                    })
                    .collect();
                traces.push(Arc::new(trace));
                if traces.len() == total_ports {
                    break 'fill;
                }
            }
        }
        assert_eq!(traces.len(), total_ports);
        World {
            wl,
            seed,
            model: Arc::clone(&ready.model),
            model_fp: model_fingerprint(&ready.model),
            scales: ready.scales,
            train_windows: ready.train_windows.clone(),
            traces,
            gen: start.elapsed(),
        }
    }

    /// The traces of connection `conn`'s ports.
    pub fn traces_of(&self, conn: usize) -> Vec<Arc<Vec<IntervalUpdate>>> {
        let n = self.wl.ports_per_connection();
        self.traces[conn * n..(conn + 1) * n].to_vec()
    }

    /// The `window_intervals` updates whose newest is the port's
    /// `pos`-th send (the replay wraps).
    pub fn history(&self, conn: usize, port: usize, pos: u32) -> Vec<IntervalUpdate> {
        let trace = &self.traces[conn * self.wl.ports_per_connection() + port];
        let wi = self.wl.window_intervals as u32;
        (pos + 1 - wi..=pos)
            .map(|n| trace[n as usize % trace.len()].clone())
            .collect()
    }
}

/// What checking one connection's replies found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    pub checked: u64,
    pub bitwise_checked: u64,
    /// Replies that break C1∧C2∧C3 for their update (as measured, or
    /// as minimally relaxed when the measurements contradict each
    /// other), or differ from `try_push`.
    pub wrong: u64,
    pub degraded: u64,
    /// Order-independent fingerprint of the open-loop replies; a seed
    /// fixes the open-loop operations, so it repeats across runs.
    pub fingerprint: u64,
}

impl Verdict {
    pub fn merge(&mut self, o: Verdict) {
        self.checked += o.checked;
        self.bitwise_checked += o.bitwise_checked;
        self.wrong += o.wrong;
        self.degraded += o.degraded;
        self.fingerprint = self.fingerprint.wrapping_add(o.fingerprint);
    }
}

/// The correctness gate for one connection's replies: every series
/// satisfies its update's constraints exactly, and every
/// [`BITWISE_SAMPLE_EVERY`]-th is bitwise what `StreamingImputer`
/// computes from the same model and history. An interval the server
/// `refused` never entered its port's sliding window, so the bitwise
/// check skips the replies whose window would have held it.
pub fn verify(world: &World, conn: usize, log: &[ReplyRec], refused: &[(u16, u32)]) -> Verdict {
    let wl = world.wl;
    let refused: std::collections::HashSet<(u16, u32)> = refused.iter().copied().collect();
    let mut v = Verdict::default();
    for (i, r) in log.iter().enumerate() {
        let history = world.history(conn, r.port as usize, r.pos);
        let in_step = !(1..wl.window_intervals as u32)
            .any(|back| refused.contains(&(r.port, r.pos.wrapping_sub(back))));
        let update = history.last().expect("window_intervals >= 1");
        v.checked += 1;
        v.degraded += u64::from(!r.full);
        let c = constraints_of(update, wl.interval_len);
        let mut ok = if r.enforced {
            c.satisfied_exact(&r.series)
        } else {
            // The server says the measurements contradict each other
            // (e.g. a packet queued at the interval's last step with
            // nothing sent yet breaks C3 as measured). The minimal
            // relaxation depends on the measurements alone, so any
            // target recovers it; a claim of relaxation on consistent
            // measurements is wrong.
            let zeros = vec![vec![0.0; wl.interval_len]; update.samples.len()];
            enforce_degraded_with(
                &c,
                &zeros,
                &LadderConfig::default(),
                &EnforceOptions::default(),
            )
            .relaxed
            .is_some_and(|relaxed| relaxed.satisfied_exact(&r.series))
        };
        if in_step && (i % BITWISE_SAMPLE_EVERY == 0 || !r.enforced) {
            v.bitwise_checked += 1;
            let mut shadow = StreamingImputer::new(
                Arc::clone(&world.model),
                CemEngine::Fast,
                r.port as usize,
                update.samples.len(),
                wl.interval_len,
                wl.window_intervals,
            );
            let mut out = None;
            for u in history.iter().cloned() {
                out = shadow.try_push(u).expect("replay trace is well-formed");
            }
            ok &= out.is_some_and(|o| {
                o.series == r.series
                    && o.enforced == r.enforced
                    && (o.level == DegradationLevel::Full) == r.full
            });
        }
        v.wrong += u64::from(!ok);
        if r.open {
            let key = [vec![conn as u32, r.port as u32, r.pos]];
            v.fingerprint = v
                .fingerprint
                .wrapping_add(cem::hash_u32_series(&r.series) ^ cem::hash_u32_series(&key));
        }
    }
    v
}
