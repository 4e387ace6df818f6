//! `fmml-benchmark` — the one repeatable benchmark for fmml.
//!
//! ```text
//! fmml-benchmark --workload <name|all> --seed <n> [--seconds 30] [--trace 0|1] [--record FILE]
//! fmml-benchmark compare <setA> <setB>
//! ```
//!
//! A run builds a world from the seed, drives the real crates through
//! their public APIs, checks every output, prints every metric by name
//! with its unit and — as its last line — the result object
//! `BENCHMARK.json` describes. `--trace 0` measures the end-to-end
//! metrics; `--trace 1` measures the per-layer budget and writes the
//! spans it recorded to `benchmark/target/spans/`. See README.md.

mod catalog;
mod client;
mod compare;
mod deploy;
mod layers;
mod offline;
mod report;
mod serving;
mod spans;
mod stats;
mod world;

use catalog::{Kind, Route, Workload, OFFLINE_ROUNDS, SERVE_ROUNDS, WORKLOADS};
use deploy::Deployment;
use report::Report;
use serving::{Plan, ServeOutcome};
use spans::Recorder;
use stats::{median, ms, quantile, Summary};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use world::{set_up, Ready, World};

/// Where the traced run writes its span file (under the `target/` that
/// the repo's `.gitignore` already covers).
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/target/spans");
/// Idle round trips timed for `serve.rtt_idle_us`, and their time cap.
const IDLE_ROUND_TRIPS: usize = 200;
const IDLE_BUDGET: Duration = Duration::from_millis(400);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: fmml-benchmark --workload <{}|all> --seed <n> [--seconds 30] [--trace 0|1] [--record FILE]\n       fmml-benchmark compare <setA> <setB>",
        WORKLOADS.each_ref().map(|w| w.name).join("|")
    );
    ExitCode::from(2)
}

fn parse(argv: &[String]) -> Option<Args> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
        record: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().ok()?,
            "--seconds" => a.seconds = value.parse().ok().filter(|&s| s >= 1)?,
            "--trace" => a.trace = matches!(value.as_str(), "1"),
            "--record" => a.record = Some(value.clone()),
            _ => return None,
        }
    }
    (!a.workload.is_empty()).then_some(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = &argv[..] else {
            return usage();
        };
        return match compare::compare(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(args) = parse(&argv) else {
        return usage();
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(wl) = catalog::workload(&args.workload) else {
        return usage();
    };
    let report = run_one(wl, &args);
    report.print();
    if let Some(path) = &args.record {
        if let Err(e) = report.record(path) {
            eprintln!("--record {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("fmml-benchmark: INCORRECT OUTPUT on {}", wl.name);
        ExitCode::from(1)
    }
}

/// `--workload all`: one cold child process per workload, in catalog
/// order, each printing its own table and result line.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut code = ExitCode::SUCCESS;
    for wl in &WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", wl.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(path) = &args.record {
            cmd.args(["--record", path]);
        }
        let status = cmd.status().expect("run child benchmark");
        if !status.success() {
            code = ExitCode::from(1);
        }
    }
    code
}

fn run_one(wl: &'static Workload, args: &Args) -> Report {
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0, args.trace);
    let mut report = Report::new(wl.name, args.seed, args.trace);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.note(format!(
        "cores={cores} seconds={} geometry={}x{} open={}x{}@20Hz ({}/s) closed={}x{}",
        args.seconds,
        wl.interval_len,
        wl.window_intervals,
        catalog::CONNECTIONS,
        wl.open_ports,
        wl.offered_per_s(),
        catalog::CONNECTIONS,
        wl.closed_ports
    ));

    let mut ready = set_up(wl, &mut rec);
    let deployment = ready.deployment.take();
    let world = Arc::new(World::new(wl, args.seed, &ready));
    let t = ready.times;
    report.note(format!(
        "model_fingerprint={:016x} set-up: total={:.3}s netsim={:.3}s windows={:.3}s train={:.3}s spawn={:.4}s first_reply={:.4}s",
        world.model_fp,
        t.total.as_secs_f64(),
        t.netsim.as_secs_f64(),
        t.windows.as_secs_f64(),
        t.train.as_secs_f64(),
        t.spawn.as_secs_f64(),
        t.first_reply.as_secs_f64()
    ));
    let rounds = match wl.kind {
        Kind::Serve(_) => SERVE_ROUNDS,
        Kind::OfflineSmt => OFFLINE_ROUNDS,
    };
    let phase = Duration::from_secs(args.seconds) / (2 * rounds as u32);

    if args.trace {
        traced(&mut report, &world, &ready, deployment, phase, rec, epoch);
        return report;
    }

    report.set("setup_s", t.total.as_secs_f64());
    match wl.kind {
        Kind::Serve(_) => {
            let dep = deployment.expect("serving set-up leaves a deployment");
            let out = serving::run(
                &world,
                &dep,
                &Plan {
                    phase,
                    rounds,
                    trace_odd_rounds: false,
                    idle_round_trips: 0,
                    epoch,
                },
            );
            let measured = epoch.elapsed();
            dep.shutdown();
            report.note(format!(
                "wall: set-up {:.2}s + replay traces {:.2}s + handshake, warm-up, rounds, drains, checks {:.2}s + shutdown {:.2}s",
                t.total.as_secs_f64(),
                world.gen.as_secs_f64(),
                (measured - t.total - world.gen).as_secs_f64(),
                (epoch.elapsed() - measured).as_secs_f64()
            ));
            set_end_to_end(&mut report, serve_rounds(&out, false));
            judge_serving(&mut report, &out);
            warn_generator(&out);
        }
        Kind::OfflineSmt => {
            let problems = offline::build_problems(&world);
            let out = offline::run(
                &problems,
                phase,
                rounds,
                fmml_smt::solver::Budget::default(),
            );
            set_end_to_end(
                &mut report,
                [
                    out.capacities_per_s(),
                    out.cpu_ms_per_op(),
                    out.lat_ms(0.5),
                    out.lat_ms(0.9),
                ],
            );
            report.note(format!(
                "problems={} sequential_passes={} jobs_passes={} reply_fingerprint={:016x}",
                problems.len(),
                out.rounds.iter().map(|r| r.seq_passes).sum::<usize>(),
                out.rounds.iter().map(|r| r.jobs_passes).sum::<usize>(),
                out.fingerprint,
            ));
            report.attempted = out.attempted();
            report.failed = out.wrong;
            report.correct = out.wrong == 0;
        }
    }
    report
}

/// The end-to-end metrics a run measures once per round.
const PER_ROUND: [&str; 4] = [
    "capacity_per_s",
    "cpu_ms_per_op",
    "lat_p50_ms",
    "lat_p90_ms",
];

/// Each [`PER_ROUND`] metric of every round with tracing `traced`.
fn serve_rounds(out: &ServeOutcome, traced: bool) -> [Vec<f64>; 4] {
    [
        out.per_round(traced, |r| r.capacity_per_s).collect(),
        out.per_round(traced, |r| r.cpu_ms_per_op).collect(),
        out.per_round(traced, |r| median(&r.tick_p50_ms)).collect(),
        out.per_round(traced, |r| median(&r.tick_p90_ms)).collect(),
    ]
}

/// A run's value of each [`PER_ROUND`] metric is the median over its
/// rounds; the quartiles and how far the rounds disagreed go in a note.
fn set_end_to_end(report: &mut Report, rounds: [Vec<f64>; 4]) {
    let notes: Vec<String> = PER_ROUND
        .iter()
        .zip(&rounds)
        .map(|(name, v)| {
            let r = Summary::of(v);
            report.set(name, r.median);
            format!(
                "{name} median={:.4} [q1 {:.4}, q3 {:.4}] spread={:.3}",
                r.median,
                r.q1,
                r.q3,
                r.spread_share()
            )
        })
        .collect();
    report.note(format!("rounds={}: {}", rounds[0].len(), notes.join("; ")));
}

/// Fill in attempted/failed/correct from a serving outcome.
fn judge_serving(report: &mut Report, out: &ServeOutcome) {
    report.attempted = out.attempted;
    report.failed = out.failed();
    report.correct = out.verdict.wrong == 0
        && out.verdict.checked > 0
        && out.lost == 0
        && out.rejected == 0
        && out.nodes.violations == 0
        && out.nodes.migrations == 0;
    report.note(format!(
        "checked={} bitwise_checked={} wrong={} rejected={} lost={} busy={} late={} \
         server_violations={} migrations={} reply_fingerprint={:016x}",
        out.verdict.checked,
        out.verdict.bitwise_checked,
        out.verdict.wrong,
        out.rejected,
        out.lost,
        out.busy,
        out.late,
        out.nodes.violations,
        out.nodes.migrations,
        out.verdict.fingerprint
    ));
}

fn gen_cpu_share(out: &ServeOutcome) -> f64 {
    out.gen_cpu.as_secs_f64() / out.proc_cpu.as_secs_f64().max(1e-9)
}

/// Generator honesty: say so when the numbers measure the harness.
fn warn_generator(out: &ServeOutcome) {
    let late = quantile(&out.gen_late_us, 0.99);
    if late > 2000.0 {
        eprintln!("warning: generator lateness p99 is {late:.0} us (> 2 ms): latencies include harness delay");
    }
    let share = gen_cpu_share(out);
    if share > 0.15 {
        eprintln!(
            "warning: the generator used {:.0}% of the process CPU (> 15%): capacity is partly the harness's",
            share * 100.0
        );
    }
}

/// The traced run: per-layer metrics only. A direct node and a cluster
/// are both driven (shortened), so every `serve.*`/`cluster.*` number is
/// measured on every workload; the workload's own route is "primary".
fn traced(
    report: &mut Report,
    world: &Arc<World>,
    ready: &Ready,
    deployment: Option<Deployment>,
    phase: Duration,
    mut rec: Recorder,
    epoch: Instant,
) {
    let wl = world.wl;
    let primary_route = match wl.kind {
        Kind::Serve(route) => route,
        Kind::OfflineSmt => Route::Direct,
    };

    // netsim / telemetry / training, from the set-ups.
    let set_up = ready.times;
    report.set(
        "netsim.sim_ms_per_s",
        wl.train_sim_ms as f64 / set_up.netsim.as_secs_f64(),
    );
    report.set("netsim.gen_s", world.gen.as_secs_f64());
    report.set(
        "telemetry.windows_per_s",
        set_up.raw_windows as f64 / set_up.windows.as_secs_f64(),
    );
    report.set("telemetry.sanitize_us", layers::sanitize_us(world));
    let train = set_up.train;
    report.set("core.train_epoch_ms", layers::plain_epoch_ms(world));
    report.set(
        "core.train_kal_epoch_ms",
        ms(train) / wl.train_epochs as f64,
    );
    report.set("core.train_s", train.as_secs_f64());
    report.set("nn.gemm_par_shards", set_up.train_par_shards as f64);
    report.set("nn.gemm_gflops", layers::gemm_gflops(world));

    // Single-threaded replay of sampled ops through the public functions.
    let replay = layers::replay(world, &mut rec);
    report.set("nn.gemm_fmas_per_forward", replay.fmas_per_forward);
    report.set("nn.tape_pool_hit_share", replay.tape_pool_hit_share);
    report.set("core.forward_us", replay.forward_us);
    report.set("core.prepare_us", replay.prepare_us());
    report.set("fm.fast_interval_us", replay.fast_interval_us);
    report.set("fm.ladder_us_per_op", replay.ladder_us);
    report.set("fm.check_us", replay.check_us);
    report.set("fm.raw_violation_share", replay.raw_violation_share);
    for (label, codec) in [
        ("bin1", fmml_serve::WireCodec::Bin1),
        ("json", fmml_serve::WireCodec::Json),
    ] {
        let c = layers::codec(&replay, codec);
        report.set(&format!("serve.{label}.interval_dec_ns"), c.interval_dec_ns);
        report.set(&format!("serve.{label}.imputed_enc_ns"), c.imputed_enc_ns);
        report.set(&format!("serve.{label}.imputed_bytes"), c.imputed_bytes);
    }
    report.set("cluster.ring_assign_ns", layers::ring_assign_ns());
    report.set("smt.packet_model_ms", layers::packet_model_ms());

    // The SMT rung: the workload itself offline, a bounded probe else.
    let (smt, smt_wrong) = match wl.kind {
        Kind::OfflineSmt => {
            let problems = offline::build_problems(world);
            let out = offline::run(&problems, phase / 2, 1, fmml_smt::solver::Budget::default());
            let wrong = out.wrong;
            (out, wrong)
        }
        // Bounded by a wall-clock timeout, so a degraded level there is
        // expected and not an error.
        Kind::Serve(_) => (layers::smt_probe(&replay.problems), 0),
    };
    let (seq_ops, seq_time) = (smt.seq_ops(), smt.seq_time());
    report.set("fm.smt_interval_ms_p50", median(&smt.lat_ms(0.5)));
    report.set("fm.smt_interval_ms_p90", median(&smt.lat_ms(0.9)));
    report.set(
        "fm.jobs_speedup",
        median(&smt.capacities_per_s()) / (seq_ops / seq_time.as_secs_f64()),
    );
    report.set(
        "smt.decisions_per_op",
        smt.seq_work.decisions as f64 / seq_ops,
    );
    report.set(
        "smt.conflicts_per_op",
        smt.seq_work.conflicts as f64 / seq_ops,
    );
    report.set("smt.pivots_per_op", smt.seq_work.pivots as f64 / seq_ops);
    report.set(
        "smt.iterations_per_op",
        smt.seq_work.iterations as f64 / seq_ops,
    );
    report.set(
        "smt.conflicts_per_s",
        smt.seq_work.conflicts as f64 / seq_time.as_secs_f64(),
    );
    report.set(
        "smt.pivots_per_s",
        smt.seq_work.pivots as f64 / seq_time.as_secs_f64(),
    );

    // Serving probes: direct (tracing toggled every other round) and
    // cluster (plain), phases a third as long.
    let probe_phase = phase / 3;
    let idle = IDLE_ROUND_TRIPS
        .min((IDLE_BUDGET.as_secs_f64() * 1e6 / replay.attributed_us().max(1.0)) as usize)
        .max(8);
    let mut spawn_direct = set_up.spawn;
    let (mut direct, mut cluster) = (None, None);
    match deployment {
        Some(dep) if dep.route == Route::Direct => direct = Some(dep),
        Some(dep) => cluster = Some(dep),
        None => {}
    }
    let direct = direct.unwrap_or_else(|| {
        let t = Instant::now();
        let dep = Deployment::spawn(&world.model, Route::Direct);
        spawn_direct = t.elapsed();
        dep
    });
    let cluster = cluster.unwrap_or_else(|| Deployment::spawn(&world.model, Route::Cluster));
    let d = serving::run(
        world,
        &direct,
        &Plan {
            phase: probe_phase,
            rounds: 4,
            trace_odd_rounds: true,
            idle_round_trips: idle,
            epoch,
        },
    );
    let (dump, _) = client::metrics_dump(direct.addr());
    direct.shutdown();
    let c = serving::run(
        world,
        &cluster,
        &Plan {
            phase: probe_phase,
            rounds: 2,
            trace_odd_rounds: false,
            idle_round_trips: idle,
            epoch,
        },
    );
    cluster.shutdown();

    let cap = |o: &ServeOutcome, traced: bool| median(&serve_rounds(o, traced)[0]);
    let primary = if primary_route == Route::Direct {
        &d
    } else {
        &c
    };
    let cpu_us = median(&serve_rounds(primary, false)[1]) * 1e3;
    report.set("serve.rtt_idle_us", median(&d.rtt_idle_us));
    report.set(
        "serve.batch_size_mean",
        d.nodes.replies as f64 / d.nodes.batches.max(1) as f64,
    );
    report.set(
        "serve.busy_share",
        primary.busy as f64 / primary.attempted.max(1) as f64,
    );
    let open_answered: usize = primary.rounds.iter().map(|r| r.lat_ms.len()).sum();
    report.set(
        "serve.late_share",
        primary.late as f64 / open_answered.max(1) as f64,
    );
    report.set("serve.handshake_ms", ms(d.handshake));
    report.set("serve.spawn_ms", ms(spawn_direct));
    report.set(
        "serve.lat_p99_ms",
        median(
            &primary
                .per_round(false, |r| quantile(&r.lat_ms, 0.99))
                .collect::<Vec<_>>(),
        ),
    );
    report.set("serve.cpu_us_per_op", cpu_us);
    report.set("serve.attributed_us_per_op", replay.attributed_us());
    report.set(
        "serve.unattributed_us_per_op",
        cpu_us - replay.attributed_us(),
    );
    report.set("serve.forward_share", replay.forward_us / cpu_us);
    report.set(
        "fm.cache_hit_share",
        d.nodes.cache_hits as f64 / d.nodes.cache_lookups.max(1) as f64,
    );
    report.set(
        "fm.degraded_share",
        primary.verdict.degraded as f64 / primary.verdict.checked.max(1) as f64,
    );
    report.set(
        "cluster.hop_us",
        median(&c.rtt_idle_us) - median(&d.rtt_idle_us),
    );
    report.set("cluster.capacity_ratio", cap(&c, false) / cap(&d, false));
    report.set("cluster.backend_share_max", c.nodes.backend_share_max);
    report.set("cluster.migrations", c.nodes.migrations as f64);
    report.set("obs.dump_ms", ms(dump));
    report.set(
        "obs.trace_overhead_share",
        cap(&d, false) / cap(&d, true) - 1.0,
    );
    report.set(
        "bench.gen_late_p99_us",
        quantile(&primary.gen_late_us, 0.99),
    );
    report.set("bench.gen_cpu_share", gen_cpu_share(primary));
    report.set(
        "bench.round_spread_share",
        Summary::of(&serve_rounds(primary, false)[0]).spread_share(),
    );
    report.note(format!(
        "split: cpu_us_per_op={cpu_us:.2} = attributed {:.2} (decode {:.2} + prepare {:.2} [forward {:.2}] + ladder {:.2} + check {:.2} + encode {:.2}) + unattributed {:.2}; replayed_ops={}",
        replay.attributed_us(),
        replay.decode_us,
        replay.prepare_total_us,
        replay.forward_us,
        replay.ladder_us,
        replay.check_us,
        replay.encode_us,
        cpu_us - replay.attributed_us(),
        replay.ops
    ));

    warn_generator(primary);

    // Both probes must be right for the traced run to count.
    let mut both = ServeOutcome::default();
    for o in [d, c] {
        both.attempted += o.attempted;
        both.busy += o.busy;
        both.rejected += o.rejected;
        both.late += o.late;
        both.lost += o.lost;
        both.verdict.merge(o.verdict);
        both.nodes.violations += o.nodes.violations;
        both.nodes.migrations += o.nodes.migrations;
        for r in o.recorders {
            rec.absorb(r);
        }
    }
    judge_serving(report, &both);
    report.failed += smt_wrong;
    report.correct &= smt_wrong == 0;

    let path = std::path::Path::new(OUT_DIR).join(format!("spans-{}-{}.json", wl.name, world.seed));
    match rec.write_json(&path, wl.name, world.seed) {
        Ok(()) => {
            let mut busiest: Vec<_> = rec.self_times().into_iter().collect();
            busiest.sort_by_key(|(_, (_, ns))| std::cmp::Reverse(*ns));
            report.note(format!(
                "spans={} file={} self_time_ms: {}",
                rec.spans().len(),
                path.display(),
                busiest
                    .iter()
                    .take(8)
                    .map(|(name, (n, ns))| format!("{name}×{n}={:.1}", *ns as f64 / 1e6))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            report.correct = false;
        }
    }
}
