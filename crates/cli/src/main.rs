//! `fmml` — command-line interface to the telemetry-imputation stack.
//! `USAGE` states every verb's flags and the global ones (`--stats`,
//! `--stats-json FILE`); `VERBS` runs a verb and refuses any other flag.

mod args;
mod error;

use args::Args;
use error::CliError;
use fmml_core::eval::{self, generate_windows, splice, EvalConfig, Setup};
use fmml_core::imputer::Imputer;
use fmml_core::train::{train, train_from};
use fmml_core::transformer_imputer::{Scales, TransformerImputer};
use fmml_fault::{inject_series, inject_window, FaultPlan};
use fmml_fm::cem::{
    enforce_degraded, enforce_degraded_batch, CemEngine, DegradationLevel, EnforceOptions,
    LadderConfig, LadderOutcome, SolutionCache,
};
use fmml_fm::packet_model::{
    reference_execution, solve, Arrival, PacketModelConfig, PacketModelOutcome,
};
use fmml_fm::WindowConstraints;
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{SimConfig, Simulation};
use fmml_obs::log_event;
use fmml_serve::protocol::{write_frame, Frame, FrameReader};
use fmml_serve::{ChaosConfig, LoadgenConfig, ServerConfig, WireCodec};
use fmml_smt::solver::Budget;
use fmml_telemetry::{sanitize_series, sanitize_window, SanitizeConfig, SanitizeReport};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

const USAGE: &str = "\
fmml — formal-methods-augmented telemetry imputation (HotNets '23 reproduction)

USAGE: fmml <command> [--flags]

COMMANDS:
  simulate   run the switch simulator, print the fine-grained trace as CSV
             --ms N (500)  --seed N (1)  --ports N (8)  --load F (0.5)
  telemetry  print the operator's coarse telemetry as CSV
             --ms N (500)  --seed N (1)  --ports N (8)  --load F (0.5)
             --interval N (50)
  train      train a transformer imputer, write a JSON checkpoint
             --out FILE  --kal  --epochs N (30)  --runs N (8)  --ms N (1800)  --seed N (42)
             --resume FILE  continue training from an existing checkpoint
             --smoke        scaled-down config (seconds instead of minutes)
  impute     impute fresh telemetry with a checkpoint
             --model FILE  --ms N (300)  --seed N (99)  --cem
  enforce    impute fresh telemetry and run the CEM degradation ladder
             over every active window, batched (parallel + memoized)
             --model FILE  --ms N (300)  --seed N (99)  --runs N (1)
             --smt  --deadline-ms N  --jobs N (1; 0 = auto)  --no-cache
  eval       every paper artefact, each model trained once, into ./results/
             --paper (Table 1 at paper scale)  --epochs N
  fm-solve   solve the full §2.3 packet-level model for a scripted scenario
             --steps N (8)  --ports N (2)  --budget-secs N (10)
  fault-run  chaos mode: sim -> inject faults -> sanitize -> impute -> CEM
             degradation ladder; exits non-zero if any output window
             violates its (possibly relaxed) constraints
             --seed N (7)  --runs N (2)  --epochs N (3)  --smt
             --deadline-ms N  --jobs N (1; 0 = auto)  --no-cache
  serve      run the streaming imputation server (length-prefixed
             frames over TCP, deadline-aware micro-batching, admission
             control); exits non-zero if any shipped reply violated its
             constraints
             --addr A (127.0.0.1:4700)  --workers N (2)
             --deadline-ms N (50)  --max-batch N (16)  --queue-depth N (64)
             --model FILE (default: deterministic untrained imputer)
             --seed N (3)  --max-secs N (run forever when absent)
             --wire json|bin1 (bin1; codec preference — binary is used
             only with clients that advertise it in their Hello)
             fault injection (0 = off): --worker-panic-every N
             --solver-stall-every N  --solver-stall-ms N (5)
             --slow-write-every N  --slow-write-ms N (2)
  cluster    run the sharded serving cluster: one router speaking the
             serve wire protocol on both sides, consistent-hash session
             placement over N in-process backend nodes, health-probed
             failover with warm-up migration; exits non-zero if any
             backend shipped a constraint violation
             --addr A (127.0.0.1:4710)  --backends N (3)  --workers N (1)
             --deadline-ms N (50)  --model FILE  --seed N (3)
             --max-secs N (run forever when absent)
             --kill-backend-after-ms N (shut backend 0 down mid-run to
             exercise live migration; 0 = off)
             --wire json|bin1 (bin1; router + backends prefer the same
             codec, binary sessions pass through without re-encoding)
  loadgen    drive a running server with concurrent trace-replay clients
             --addr A (required)  --clients N (8)  --intervals N (40)
             --seed N (11)  --deadline-ms N (50)  --pace-ms N
             --wire json|bin1 (bin1; json does not advertise bin1)
             --chaos (standard >= 10% disturbance preset)
             --report-json FILE (write the flat LoadReport JSON)
  obs        query a running server for its live metrics registry, trace
             summaries, and SLO gauges (sends a MetricsDump frame)
             --addr A (127.0.0.1:4700)  --json (raw dump instead of tables)
             --folded FILE (write folded stacks for flamegraph.pl)
  simtest    deterministic simulation testing: seeded schedules of client
             ops x transport faults x worker panics over virtual time,
             the whole server running over an in-memory transport, every
             reply checked against a reference model of the session
             protocol; each violation prints a replayable FMML_SIM_SEED
             --seeds N (100)  --seed N (1; first seed)  --clients N (3)
             --ops N (16)  --json (per-seed JSON lines)
             --wire json|bin1 (bin1; the codec the whole sweep runs
             under — fingerprints are codec-independent)
             --pinned FILE   verify the aggregate reply fingerprint
                             against FILE, or write FILE if absent (with
                             --cluster the record also pins --backends)
             --cluster       multi-node mode: clients -> router -> N
                             backend shards, schedules extended with
                             link flaps, partitions and membership
                             churn; the whole run executes twice and
                             must reproduce bitwise
             --backends N (3; shards per seed, --cluster only)
             --inject-bug replay-off-by-one
                             prove the checker is live: exits 0 iff the
                             deliberately broken replay is caught and
                             reproduced bitwise from the printed seed

GLOBAL FLAGS:
  --stats            print the metrics table to stderr on exit
  --stats-json FILE  write the metrics snapshot as JSON to FILE on exit

ENVIRONMENT:
  FMML_LOG=1         structured JSONL run telemetry on stderr
  FMML_LOG_FILE=path append structured JSONL run telemetry to a file
  FMML_TRACE=1       enable span tracing (per-thread ring journals)
  FMML_TRACE_RING=N  slots per trace ring (default 4096)
";

fn main() {
    fmml_obs::RunLog::init_from_env();
    fmml_obs::trace::init_from_env();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(command) = args.command.as_deref() else {
        println!("{USAGE}");
        return;
    };
    log_event!("cli.start", "command" = command);
    let result = match VERBS.iter().find(|(verb, ..)| *verb == command) {
        None => Err(CliError::Usage(format!("unknown command {command:?}"))),
        Some((_, run, flags)) => match args.unknown_flag(flags) {
            Some(flag) => Err(format!("unknown flag --{flag} for {command}").into()),
            None => run(&args),
        },
    };
    log_event!("cli.done", "command" = command, "ok" = result.is_ok());
    if let Err(e) = emit_stats(&args) {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
    if let Err(e) = result {
        eprintln!("error: {e}");
        if matches!(e, CliError::Usage(_)) {
            eprintln!("run `fmml` without arguments for usage");
        }
        std::process::exit(e.exit_code());
    }
}

type Verb = fn(&Args) -> Result<(), CliError>;

/// Every verb, what runs it, and the flags it takes: the ones its
/// `USAGE` block names. Any other flag but the global ones exits 2.
#[rustfmt::skip]
const VERBS: &[(&str, Verb, &str)] = &[
    ("simulate", cmd_simulate, "ms seed ports load"),
    ("telemetry", cmd_telemetry, "ms seed ports load interval"),
    ("train", cmd_train, "out kal epochs runs ms seed resume smoke"),
    ("impute", cmd_impute, "model ms seed cem"),
    ("enforce", cmd_enforce, "model ms seed runs smt deadline-ms jobs no-cache"),
    ("eval", cmd_eval, "paper epochs"),
    ("fm-solve", cmd_fm_solve, "steps ports budget-secs"),
    ("fault-run", cmd_fault_run, "seed runs epochs smt deadline-ms jobs no-cache"),
    ("serve", cmd_serve, "addr workers deadline-ms max-batch queue-depth model seed \
        max-secs wire worker-panic-every solver-stall-every solver-stall-ms slow-write-every \
        slow-write-ms"),
    ("cluster", cmd_cluster, "addr backends workers deadline-ms model seed max-secs \
        kill-backend-after-ms wire"),
    ("loadgen", cmd_loadgen, "addr clients intervals seed deadline-ms pace-ms wire chaos \
        report-json"),
    ("obs", cmd_obs, "addr json folded"),
    ("simtest", cmd_simtest, "seeds seed clients ops json wire pinned cluster backends inject-bug"),
];

/// Honor the global `--stats` / `--stats-json FILE` flags: snapshot the
/// process-wide metrics registry once and render it both ways.
fn emit_stats(args: &Args) -> Result<(), CliError> {
    let want_table = args.flag("stats");
    let json_path = args.get_string("stats-json");
    if !want_table && json_path.is_none() {
        return Ok(());
    }
    let report = fmml_obs::snapshot();
    if want_table {
        eprint!("{}", report.to_table());
    }
    if let Some(path) = json_path {
        std::fs::write(path, report.to_json()).map_err(|e| CliError::io(path, e))?;
    }
    Ok(())
}

/// A `usize` flag that must be at least `min`.
fn at_least(args: &Args, name: &str, default: usize, min: usize) -> Result<usize, CliError> {
    let v = args.get_or(name, default)?;
    if v < min {
        return Err(CliError::Usage(format!(
            "--{name} must be >= {min}, got {v}"
        )));
    }
    Ok(v)
}

fn sim_config(args: &Args) -> Result<(SimConfig, TrafficConfig, u64, u64), CliError> {
    let mut cfg = SimConfig::paper_default();
    // Websearch flows need a destination other than their source port.
    cfg.num_ports = at_least(args, "ports", cfg.num_ports, 2)?;
    cfg.validate().map_err(CliError::Usage)?;
    let load: f64 = args.get_or("load", 0.5)?;
    if !(0.0..=1.0).contains(&load) {
        return Err(CliError::Usage(format!(
            "--load must be within [0,1], got {load}"
        )));
    }
    let traffic = TrafficConfig::websearch_incast(cfg.num_ports, load);
    let ms = args.get_or("ms", 500u64)?;
    let seed = args.get_or("seed", 1u64)?;
    Ok((cfg, traffic, ms, seed))
}

fn cmd_simulate(args: &Args) -> Result<(), CliError> {
    let (cfg, traffic, ms, seed) = sim_config(args)?;
    let gt = Simulation::new(cfg, traffic, seed).run_ms(ms);
    print!("{}", gt.to_csv());
    Ok(())
}

fn cmd_telemetry(args: &Args) -> Result<(), CliError> {
    let (cfg, traffic, ms, seed) = sim_config(args)?;
    let interval = at_least(args, "interval", 50, 1)?;
    let gt = Simulation::new(cfg, traffic, seed).run_ms(ms);
    let ct = fmml_telemetry::CoarseTelemetry::from_ground_truth(&gt, interval);
    // Header.
    print!("interval");
    for q in 0..ct.num_queues() {
        print!(",sample{q},max{q}");
    }
    for p in 0..ct.num_ports() {
        print!(",recv{p},sent{p},drop{p}");
    }
    println!();
    for k in 0..ct.num_intervals() {
        print!("{k}");
        for q in &ct.queues {
            print!(",{},{}", q.samples[k], q.max[k]);
        }
        for p in &ct.ports {
            print!(",{},{},{}", p.received[k], p.sent[k], p.dropped[k]);
        }
        println!();
    }
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), CliError> {
    let out = args
        .get_string("out")
        .ok_or_else(|| CliError::Usage("--out FILE is required".into()))?
        .to_string();
    let mut cfg = if args.flag("smoke") {
        EvalConfig::smoke()
    } else {
        EvalConfig::paper()
    };
    cfg.train_runs = args.get_or("runs", cfg.train_runs)?;
    cfg.run_ms = args.get_or("ms", cfg.run_ms)?;
    cfg.seed = args.get_or("seed", cfg.seed)?;
    cfg.train.epochs = args.get_or("epochs", cfg.train.epochs)?;
    if args.flag("kal") {
        cfg.train.kal = Some(cfg.kal);
    }
    let scales = cfg.scales();
    log_event!(
        "cli.train.start",
        "runs" = cfg.train_runs,
        "run_ms" = cfg.run_ms,
        "epochs" = cfg.train.epochs,
        "kal" = cfg.train.kal.is_some(),
    );
    let windows = generate_windows(&cfg, cfg.seed, cfg.train_runs);
    if windows.is_empty() {
        return Err(CliError::Invalid(
            "no active windows in the simulated span".into(),
        ));
    }
    let (model, stats) = match args.get_string("resume") {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
            let mut model = TransformerImputer::load_json(&json)
                .map_err(|e| CliError::Invalid(format!("--resume {path}: {e}")))?;
            let stats = train_from(&mut model, &windows, &cfg.train);
            (model, stats)
        }
        None => train(&windows, scales, &cfg.train),
    };
    log_event!(
        "cli.train.done",
        "windows" = windows.len(),
        "first_loss" = stats.first().map_or(0.0, |s| s.mean_loss),
        "last_loss" = stats.last().map_or(0.0, |s| s.mean_loss),
        "rollbacks" = stats.iter().filter(|s| s.rolled_back).count(),
    );
    std::fs::write(&out, model.save_json()).map_err(|e| CliError::io(&out, e))?;
    eprintln!("checkpoint written to {out}");
    Ok(())
}

fn cmd_impute(args: &Args) -> Result<(), CliError> {
    let path = args
        .get_string("model")
        .ok_or_else(|| CliError::Usage("--model FILE is required".into()))?;
    let json = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    let model = TransformerImputer::load_json(&json)
        .map_err(|e| CliError::Invalid(format!("--model {path}: not a valid checkpoint: {e}")))?;
    let mut cfg = EvalConfig::paper();
    cfg.run_ms = args.get_or("ms", 300u64)?;
    cfg.seed = args.get_or("seed", 99u64)?;
    let windows = generate_windows(&cfg, cfg.seed, 1);
    if windows.is_empty() {
        return Err(CliError::Invalid(
            "no active windows in the simulated span".into(),
        ));
    }
    let use_cem = args.flag("cem");
    println!("window,queue,ms,imputed");
    for (wi, w) in windows.iter().enumerate() {
        let mut series = model.impute(w);
        if use_cem {
            let wc = WindowConstraints::from_window(w);
            series = enforce_degraded(&wc, &series, &LadderConfig::default())
                .corrected
                .iter()
                .map(|q| q.iter().map(|&v| v as f32).collect())
                .collect();
        }
        for (q, qs) in series.iter().enumerate() {
            for (t, v) in qs.iter().enumerate() {
                println!("{wi},{q},{},{v:.2}", w.start_bin + t);
            }
        }
    }
    Ok(())
}

fn cmd_eval(args: &Args) -> Result<(), CliError> {
    let paper = args.flag("paper");
    let mut cfg = if paper {
        EvalConfig::paper()
    } else {
        EvalConfig::smoke()
    };
    if let Some(e) = args.get::<usize>("epochs")? {
        cfg.train.epochs = e;
    }
    log_event!(
        "cli.eval.start",
        "epochs" = cfg.train.epochs,
        "paper" = paper
    );
    let setup = Setup::new(cfg);
    std::fs::create_dir_all("results").map_err(|e| CliError::io("results", e))?;
    let scenarios = if paper {
        &eval::PAPER[..]
    } else {
        &eval::SMOKE[..]
    };
    let mut failed = Vec::new();
    for scenario in scenarios {
        let out = (scenario.run)(&setup);
        println!(
            "## results/{}.out\n\n```text\n{}```\n",
            scenario.name, out.text
        );
        failed.extend_from_slice(&out.failed);
        for (name, body) in out.files(scenario.name) {
            let path = format!("results/{name}");
            std::fs::write(&path, body).map_err(|e| CliError::io(&path, e))?;
            eprintln!("wrote {path}");
        }
    }
    // Refresh the generated blocks of EXPERIMENTS.md when run from the
    // repository root.
    let doc = "EXPERIMENTS.md";
    if let Ok(old) = std::fs::read_to_string(doc) {
        let new = splice(&old, |p| std::fs::read_to_string(p)).map_err(|e| CliError::io(doc, e))?;
        std::fs::write(doc, new).map_err(|e| CliError::io(doc, e))?;
    }
    // Always embed the metrics snapshot so an eval report is
    // self-describing: the table plus the solver/training/sim work that
    // produced it, in the same deterministic JSON as --stats-json.
    println!("## Metrics\n");
    println!("```json\n{}\n```", fmml_obs::snapshot().to_json());
    // At paper scale Table 1 must keep the shape it reproduces; a smoke
    // run (or a shortened `--epochs`) only reports it.
    if paper && !failed.is_empty() {
        let failed = failed.join("; ");
        return Err(CliError::Invalid(format!("Table 1 claims fail: {failed}")));
    }
    Ok(())
}

fn cmd_fm_solve(args: &Args) -> Result<(), CliError> {
    let steps = args.get_or("steps", 8usize)?;
    let ports = args.get_or("ports", 2usize)?;
    let budget_secs = args.get_or("budget-secs", 10u64)?;
    if steps < 2 || steps % 2 != 0 {
        return Err(CliError::Usage("--steps must be even and >= 2".into()));
    }
    let cfg = PacketModelConfig {
        num_ports: ports,
        queues_per_port: 2,
        buffer: 16,
        time_steps: steps,
        interval_len: steps / 2,
        strict_priority: true,
    };
    cfg.validate().map_err(CliError::Usage)?;
    let mut arrivals = Vec::new();
    for t in 0..steps / 2 {
        for i in 0..ports.min(2) {
            arrivals.push(Arrival {
                step: t,
                input_port: i,
                queue: (i * 2) % cfg.num_queues(),
            });
        }
    }
    let tr = reference_execution(&cfg, &arrivals);
    let budget = Budget {
        timeout: Some(Duration::from_secs(budget_secs)),
        max_sat_conflicts: Some(u64::MAX / 2),
        max_bb_nodes: u64::MAX / 2,
    };
    match solve(&cfg, &tr.measurements, budget) {
        PacketModelOutcome::Sat {
            len,
            elapsed,
            stats,
        } => {
            println!("sat in {elapsed:?}; imputed series:");
            for (q, series) in len.iter().enumerate() {
                println!("  q{q}: {series:?}");
            }
            println!(
                "solver: {} decisions, {} conflicts, {} pivots",
                stats.decisions, stats.conflicts, stats.simplex_pivots
            );
        }
        PacketModelOutcome::Unsat { elapsed, .. } => println!("unsat in {elapsed:?}"),
        PacketModelOutcome::Unknown { elapsed, stats } => {
            println!(
                "budget wall after {elapsed:?} (the §2.3 scalability result): \
                 {} + {} conflicts (boolean + theory), {} pivots",
                stats.conflicts, stats.theory_conflicts, stats.simplex_pivots
            )
        }
    }
    Ok(())
}

/// Stage B of `enforce`/`fault-run`: run the degradation ladder over a
/// batch of `(constraints, prediction)` windows with the requested
/// worker count and memo cache.
fn run_ladder(
    items: &[(WindowConstraints, Vec<Vec<f32>>)],
    cfg: &LadderConfig,
    jobs: usize,
    use_cache: bool,
) -> Vec<LadderOutcome> {
    let cache = SolutionCache::new(fmml_fm::cem::cache::DEFAULT_CAPACITY);
    let opts = EnforceOptions::new(jobs, use_cache.then_some(&cache));
    let outs = enforce_degraded_batch(items, cfg, &opts);
    if use_cache {
        let stats = cache.stats();
        println!(
            "  cache: hits={} misses={} hit_rate={:.1}% evictions={} saved={:.2}ms",
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
            stats.evictions,
            stats.saved_ns as f64 / 1e6,
        );
    }
    outs
}

/// Per-rung interval counts, total intervals, and the number of windows
/// whose corrected output violates its effective constraints.
fn summarize_outcomes(
    items: &[(WindowConstraints, Vec<Vec<f32>>)],
    outs: &[LadderOutcome],
) -> ([usize; 5], usize, usize) {
    let mut level_counts = [0usize; 5];
    let mut intervals = 0usize;
    let mut violations = 0usize;
    for (out, (wc, _)) in outs.iter().zip(items) {
        for (total, n) in level_counts.iter_mut().zip(out.level_counts()) {
            *total += n;
        }
        intervals += out.levels.len();
        if !out
            .effective_constraints(wc)
            .satisfied_exact(&out.corrected)
        {
            violations += 1;
        }
    }
    (level_counts, intervals, violations)
}

/// `full=12,clamp=3`-style rendering of per-rung interval counts.
fn ladder_summary(level_counts: &[usize; 5]) -> String {
    DegradationLevel::ALL
        .iter()
        .zip(level_counts)
        .filter(|(_, n)| **n > 0)
        .map(|(l, n)| format!("{}={n}", l.label()))
        .collect::<Vec<_>>()
        .join(",")
}

/// The shared ladder-engine knobs of `enforce`/`fault-run`.
fn ladder_config(args: &Args) -> Result<LadderConfig, CliError> {
    Ok(LadderConfig {
        engine: if args.flag("smt") {
            CemEngine::Smt {
                budget: Budget::tight(),
            }
        } else {
            CemEngine::Fast
        },
        deadline: args.get::<u64>("deadline-ms")?.map(Duration::from_millis),
        escalation_factor: 4,
        breaker: None,
    })
}

/// The inference-side enforcement path, batched: impute a fresh trace
/// with a checkpoint and push every active window through the CEM
/// degradation ladder with `--jobs` workers sharing a memo cache.
fn cmd_enforce(args: &Args) -> Result<(), CliError> {
    let path = args
        .get_string("model")
        .ok_or_else(|| CliError::Usage("--model FILE is required".into()))?;
    let json = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
    let model = TransformerImputer::load_json(&json)
        .map_err(|e| CliError::Invalid(format!("--model {path}: not a valid checkpoint: {e}")))?;
    let mut cfg = EvalConfig::paper();
    cfg.run_ms = args.get_or("ms", 300u64)?;
    cfg.seed = args.get_or("seed", 99u64)?;
    let runs = args.get_or("runs", 1usize)?;
    let jobs = args.get_or("jobs", 1usize)?;
    let use_cache = !args.flag("no-cache");
    let ladder_cfg = ladder_config(args)?;

    let windows = generate_windows(&cfg, cfg.seed, runs);
    if windows.is_empty() {
        return Err(CliError::Invalid(
            "no active windows in the simulated span".into(),
        ));
    }
    let items: Vec<(WindowConstraints, Vec<Vec<f32>>)> = windows
        .iter()
        .map(|w| (WindowConstraints::from_window(w), model.impute(w)))
        .collect();

    let t0 = Instant::now();
    let outs = run_ladder(&items, &ladder_cfg, jobs, use_cache);
    let wall = t0.elapsed();
    let (level_counts, intervals, violations) = summarize_outcomes(&items, &outs);
    println!(
        "enforce: windows={} intervals={intervals} jobs={jobs} cache={} wall={:.2}ms",
        items.len(),
        if use_cache { "on" } else { "off" },
        wall.as_secs_f64() * 1e3,
    );
    println!("  ladder: {}", ladder_summary(&level_counts));
    println!("violations={violations}");
    log_event!(
        "cli.enforce.done",
        "windows" = items.len(),
        "intervals" = intervals,
        "jobs" = jobs,
        "violations" = violations,
    );
    if violations > 0 {
        return Err(CliError::Invalid(format!(
            "{violations} window(s) violated their effective constraints"
        )));
    }
    Ok(())
}

/// Parse `--wire json|bin1` (default bin1; the handshake stays JSON and a
/// peer that does not advertise bin1 is served JSON).
fn parse_wire(args: &Args) -> Result<WireCodec, CliError> {
    match args.get_string("wire") {
        None => Ok(WireCodec::Bin1),
        Some(s) => WireCodec::parse(s)
            .ok_or_else(|| CliError::Usage(format!("unknown --wire {s:?} (known: json, bin1)"))),
    }
}

/// The serving model: `--model FILE` loads a checkpoint; otherwise a
/// deterministic untrained imputer seeded by `--seed` (scaled for the
/// `SimConfig::small()` traces the load generator replays).
fn serve_model(args: &Args) -> Result<std::sync::Arc<TransformerImputer>, CliError> {
    match args.get_string("model") {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| CliError::io(path, e))?;
            let model = TransformerImputer::load_json(&json).map_err(|e| {
                CliError::Invalid(format!("--model {path}: not a valid checkpoint: {e}"))
            })?;
            Ok(std::sync::Arc::new(model))
        }
        None => {
            let sim = SimConfig::small();
            Ok(std::sync::Arc::new(TransformerImputer::new(
                args.get_or("seed", 3u64)?,
                Scales {
                    qlen: sim.buffer_packets as f32,
                    count: 830.0,
                },
            )))
        }
    }
}

/// `fmml serve`: bind the streaming imputation server and run until
/// `--max-secs` elapses (or forever). On shutdown the final `StatsReply`
/// is printed and a non-zero exit signals shipped constraint violations.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let model = serve_model(args)?;
    let process_faults = fmml_fault::ProcessFaultPlan {
        worker_panic_every: args.get_or("worker-panic-every", 0u64)?,
        solver_stall_every: args.get_or("solver-stall-every", 0u64)?,
        solver_stall_ms: args.get_or("solver-stall-ms", 5u64)?,
        slow_write_every: args.get_or("slow-write-every", 0u64)?,
        slow_write_ms: args.get_or("slow-write-ms", 2u64)?,
    };
    if process_faults.worker_panic_every == 1 {
        return Err(CliError::Usage(
            "--worker-panic-every must be >= 2 (every retry would repanic)".into(),
        ));
    }
    let cfg = ServerConfig {
        addr: args.get_string("addr").unwrap_or("127.0.0.1:4700").into(),
        workers: at_least(args, "workers", 2, 1)?,
        deadline: Duration::from_millis(args.get_or("deadline-ms", 50u64)?),
        max_batch: at_least(args, "max-batch", 16, 1)?,
        queue_depth: args.get_or("queue-depth", 64usize)?,
        wire: parse_wire(args)?,
        process_faults,
        ..ServerConfig::default()
    };
    let max_secs = args.get::<u64>("max-secs")?;
    let handle =
        fmml_serve::spawn(model, cfg.clone()).map_err(|e| CliError::io(cfg.addr.clone(), e))?;
    let addr = handle.addr().to_string();
    eprintln!(
        "fmml-serve listening on {addr} (workers={} deadline={}ms max_batch={} queue_depth={})",
        cfg.workers,
        cfg.deadline.as_millis(),
        cfg.max_batch,
        cfg.queue_depth,
    );
    log_event!("cli.serve.start", "addr" = addr.as_str());
    match max_secs {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
    let (worker_panics, worker_restarts) = handle.worker_stats();
    let (resumes, replayed) = handle.resume_stats();
    let stats = handle.shutdown();
    let Frame::StatsReply {
        sessions,
        accepted,
        rejected,
        malformed,
        replies,
        batches,
        deadline_misses,
        violations,
        slow_disconnects,
        ..
    } = stats
    else {
        return Err(CliError::Invalid("server returned no stats".into()));
    };
    println!(
        "serve: sessions={sessions} accepted={accepted} rejected={rejected} \
         malformed={malformed} replies={replies} batches={batches} \
         deadline_misses={deadline_misses} slow_disconnects={slow_disconnects}"
    );
    println!(
        "recovery: worker_panics={worker_panics} worker_restarts={worker_restarts} \
         resumes={resumes} replayed={replayed}"
    );
    println!("violations={violations}");
    log_event!(
        "cli.serve.done",
        "sessions" = sessions,
        "replies" = replies,
        "violations" = violations,
    );
    if violations > 0 {
        return Err(CliError::Invalid(format!(
            "{violations} shipped reply(ies) violated their constraints"
        )));
    }
    Ok(())
}

/// `fmml cluster`: the sharded serving cluster — one router bound on
/// `--addr`, N in-process backend serve nodes on loopback ephemeral
/// ports, consistent-hash placement and health-probed failover between
/// them. `--kill-backend-after-ms` shuts backend 0 down mid-run so a
/// live deployment can demonstrate migration under `fmml loadgen`.
fn cmd_cluster(args: &Args) -> Result<(), CliError> {
    let model = serve_model(args)?;
    let backends_n = args.get_or("backends", 3usize)?;
    if backends_n == 0 {
        return Err(CliError::Usage("--backends must be at least 1".into()));
    }
    let wire = parse_wire(args)?;
    let backend_cfg = ServerConfig {
        workers: at_least(args, "workers", 1, 1)?,
        deadline: Duration::from_millis(args.get_or("deadline-ms", 50u64)?),
        wire,
        ..ServerConfig::default()
    };
    let router = fmml_cluster::spawn(fmml_cluster::RouterConfig {
        addr: args.get_string("addr").unwrap_or("127.0.0.1:4710").into(),
        wire,
        ..fmml_cluster::RouterConfig::default()
    })
    .map_err(|e| CliError::io("cluster router", e))?;
    let mut backends: Vec<Option<fmml_serve::ServerHandle>> = Vec::new();
    for k in 0..backends_n {
        let h = fmml_serve::spawn(std::sync::Arc::clone(&model), backend_cfg.clone())
            .map_err(|e| CliError::io("cluster backend", e))?;
        router.add_backend(
            &format!("b{k}"),
            fmml_serve::TcpConnector {
                addr: h.addr().to_string(),
            },
        );
        backends.push(Some(h));
    }
    let addr = router.addr().to_string();
    eprintln!(
        "fmml-cluster listening on {addr} ({backends_n} backends, workers={} each)",
        backend_cfg.workers
    );
    log_event!(
        "cli.cluster.start",
        "addr" = addr.as_str(),
        "backends" = backends_n as u64
    );

    let kill_after = args.get_or("kill-backend-after-ms", 0u64)?;
    let killer = (kill_after > 0).then(|| {
        let victim = backends[0].take().expect("backend 0 exists");
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(kill_after));
            eprintln!("fmml-cluster: killing backend b0 (live-migration drill)");
            victim.shutdown()
        })
    });

    match args.get::<u64>("max-secs")? {
        Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }

    let (migrations, resumes, replayed) = router.cluster_stats();
    let stats = router.shutdown();
    let mut violations_total = 0u64;
    if let Some(k) = killer {
        if let Frame::StatsReply { violations, .. } = k.join().expect("killer thread") {
            violations_total += violations;
        }
    }
    for h in backends.into_iter().flatten() {
        if let Frame::StatsReply { violations, .. } = h.shutdown() {
            violations_total += violations;
        }
    }
    let Frame::StatsReply {
        sessions,
        accepted,
        malformed,
        replies,
        ..
    } = stats
    else {
        return Err(CliError::Invalid("router returned no stats".into()));
    };
    println!(
        "cluster: sessions={sessions} accepted={accepted} malformed={malformed} \
         replies={replies}"
    );
    println!("cluster: migrations={migrations} resumes={resumes} replayed={replayed}");
    println!("violations={violations_total}");
    log_event!(
        "cli.cluster.done",
        "sessions" = sessions,
        "replies" = replies,
        "migrations" = migrations,
        "violations" = violations_total,
    );
    if violations_total > 0 {
        return Err(CliError::Invalid(format!(
            "{violations_total} shipped reply(ies) violated their constraints"
        )));
    }
    Ok(())
}

/// `fmml loadgen`: concurrent trace-replay clients against a running
/// server, optionally under the standard chaos preset. Prints the
/// aggregate report table; `--report-json FILE` writes the flat JSON
/// (fields like `deadline_miss_rate` and `rejected`) for CI to grep.
fn cmd_loadgen(args: &Args) -> Result<(), CliError> {
    let addr = args
        .get_string("addr")
        .ok_or_else(|| CliError::Usage("--addr HOST:PORT is required".into()))?;
    let cfg = LoadgenConfig {
        addr: addr.into(),
        clients: args.get_or("clients", 8usize)?,
        intervals: args.get_or("intervals", 40usize)?,
        seed: args.get_or("seed", 11u64)?,
        deadline: Duration::from_millis(args.get_or("deadline-ms", 50u64)?),
        pace: args.get::<u64>("pace-ms")?.map(Duration::from_millis),
        chaos: args.flag("chaos").then(ChaosConfig::standard),
        wire: parse_wire(args)?,
        ..LoadgenConfig::default()
    };
    log_event!(
        "cli.loadgen.start",
        "addr" = addr,
        "clients" = cfg.clients,
        "chaos" = cfg.chaos.is_some(),
    );
    let report = fmml_serve::run_loadgen(&cfg);
    print!("{}", report.render_table());
    if let Some(path) = args.get_string("report-json") {
        std::fs::write(path, report.to_json()).map_err(|e| CliError::io(path, e))?;
        eprintln!("load report written to {path}");
    }
    log_event!(
        "cli.loadgen.done",
        "sent" = report.sent,
        "answered" = report.answered,
        "rejected" = report.rejected,
        "p99_us" = report.p99_us,
    );
    if report.server_violations > 0 {
        return Err(CliError::Invalid(format!(
            "server shipped {} constraint violation(s)",
            report.server_violations
        )));
    }
    if report.unknown_levels > 0 {
        return Err(CliError::Invalid(format!(
            "{} reply(ies) carried an undecodable degradation level",
            report.unknown_levels
        )));
    }
    Ok(())
}

/// `fmml obs`: live introspection of a running server. Sends a
/// `MetricsDump` frame (accepted before or after the handshake) and
/// renders the `MetricsReply` — counters/gauges, per-stage latency
/// quantiles, SLO gauges, and recent trace summaries. `--json` prints
/// the raw dump; `--folded FILE` writes the folded-stacks export that
/// `flamegraph.pl` consumes.
fn cmd_obs(args: &Args) -> Result<(), CliError> {
    let addr = args.get_string("addr").unwrap_or("127.0.0.1:4700");
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| CliError::io(addr.to_string(), e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| CliError::io(addr.to_string(), e))?;
    write_frame(&mut stream, &Frame::MetricsDump)
        .map_err(|e| CliError::Invalid(format!("{addr}: {e}")))?;
    let mut reader = FrameReader::new(stream);
    let reply = reader
        .read_frame()
        .map_err(|e| CliError::Invalid(format!("{addr}: {e}")))?;
    let Frame::MetricsReply { json } = reply else {
        return Err(CliError::Invalid(format!(
            "{addr}: expected MetricsReply, got {}",
            reply.tag()
        )));
    };
    let dump: serde_json::Value = serde_json::from_str(&json)
        .map_err(|e| CliError::Invalid(format!("{addr}: undecodable dump: {e}")))?;
    if let Some(path) = args.get_string("folded") {
        let folded = dump["trace"]["folded"].as_str().unwrap_or("");
        std::fs::write(path, folded).map_err(|e| CliError::io(path, e))?;
        eprintln!("folded stacks written to {path}");
    }
    if args.flag("json") {
        println!("{json}");
    } else {
        print!("{}", render_obs_dump(&dump));
    }
    Ok(())
}

/// Human rendering of a [`fmml_obs::dump_json`] payload: the same
/// fixed-width tables as `--stats`, then the trace section.
fn render_obs_dump(dump: &serde_json::Value) -> String {
    let mut out = String::new();
    let m = &dump["metrics"];
    let mut scalars: Vec<(&str, String)> = Vec::new();
    for section in ["counters", "gauges", "float_gauges"] {
        for (k, v) in m[section].as_object().into_iter().flatten() {
            let rendered = v
                .as_u64()
                .map(|n| n.to_string())
                .or_else(|| v.as_f64().map(|f| format!("{f:.4}")))
                .unwrap_or_else(|| "?".into());
            scalars.push((k.as_str(), rendered));
        }
    }
    if !scalars.is_empty() {
        out.push_str(&format!("{:<44} {:>16}\n", "counter/gauge", "value"));
        for (k, v) in scalars {
            out.push_str(&format!("{k:<44} {v:>16}\n"));
        }
    }
    if let Some(hists) = m["histograms"].as_object().filter(|h| !h.is_empty()) {
        out.push_str(&format!(
            "{:<30} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>3}\n",
            "histogram", "count", "mean", "p50", "p90", "p99", "p999", "max", ""
        ));
        for (name, h) in hists {
            out.push_str(&format!(
                "{:<30} {:>7} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>3}\n",
                name,
                h["count"].as_u64().unwrap_or(0),
                h["mean"].as_f64().unwrap_or(0.0),
                h["p50"].as_f64().unwrap_or(0.0),
                h["p90"].as_f64().unwrap_or(0.0),
                h["p99"].as_f64().unwrap_or(0.0),
                h["p999"].as_f64().unwrap_or(0.0),
                h["max"].as_f64().unwrap_or(0.0),
                h["unit"].as_str().unwrap_or(""),
            ));
        }
    }
    let t = &dump["trace"];
    out.push_str(&format!(
        "trace: enabled={} spans={} dropped={}\n",
        t["enabled"].as_bool().unwrap_or(false),
        t["spans"].as_u64().unwrap_or(0),
        t["dropped"].as_u64().unwrap_or(0),
    ));
    for s in t["summaries"].as_array().into_iter().flatten() {
        out.push_str(&format!(
            "  trace {:>12} root={} spans={} total={:.1}us\n",
            s["trace_id"].as_u64().unwrap_or(0),
            s["root"].as_str().unwrap_or("?"),
            s["spans"].as_u64().unwrap_or(0),
            s["total_ns"].as_u64().unwrap_or(0) as f64 / 1e3,
        ));
    }
    out
}

/// Chaos mode: drive the full pipeline through seeded fault injection
/// and prove the degradation ladder still yields constraint-satisfying
/// windows.
///
/// Stages (all deterministic in `--seed`):
/// 1. train a small imputer with a poisoned epoch (exercises the
///    non-finite loss guard and checkpoint rollback — `train.rollback`
///    in the run log);
/// 2. simulate fresh traffic, corrupt the coarse telemetry with
///    [`FaultPlan::chaos`] (>= 10% of intervals), sanitize it;
/// 3. impute, corrupt the model output with NaN/Inf spikes, sanitize;
/// 4. run [`enforce_degraded`] and verify every window satisfies its
///    effective (possibly minimally-relaxed) C1 ∧ C2 ∧ C3.
///
/// Exits non-zero if any window violates its constraints.
fn cmd_fault_run(args: &Args) -> Result<(), CliError> {
    let seed = args.get_or("seed", 7u64)?;
    let runs = args.get_or("runs", 2usize)?;
    let epochs = args.get_or("epochs", 3usize)?.max(2);
    let jobs = args.get_or("jobs", 1usize)?;
    let use_cache = !args.flag("no-cache");

    let mut cfg = EvalConfig::smoke();
    cfg.seed = seed;
    cfg.train.seed = seed;
    cfg.train.epochs = epochs;
    // Poison the second training epoch so the rollback path runs on
    // every chaos invocation.
    cfg.train.nan_loss_epoch = Some(1);

    let plan = FaultPlan::chaos(seed);
    log_event!(
        "cli.fault_run.start",
        "seed" = seed,
        "runs" = runs,
        "expected_rate" = plan.expected_coarse_rate(),
    );

    // 1. Train (with the poisoned epoch).
    let scales = cfg.scales();
    let train_windows = generate_windows(&cfg, cfg.seed, cfg.train_runs);
    if train_windows.is_empty() {
        return Err(CliError::Invalid("no active training windows".into()));
    }
    let (model, stats) = train(&train_windows, scales, &cfg.train);
    let rollbacks = stats.iter().filter(|s| s.rolled_back).count();
    if rollbacks == 0 {
        return Err(CliError::Invalid(
            "poisoned epoch did not trigger a rollback".into(),
        ));
    }

    // 2.-4. Inject -> sanitize -> impute -> ladder on fresh windows.
    let mut windows = generate_windows(&cfg, cfg.seed ^ 0xFA17, runs);
    if windows.is_empty() {
        return Err(CliError::Invalid("no active evaluation windows".into()));
    }
    let san_cfg = SanitizeConfig::for_sim(cfg.sim.buffer_packets, cfg.interval_len);
    let ladder_cfg = ladder_config(args)?;

    // Stage A (sequential, deterministic in --seed): inject -> sanitize
    // -> impute -> sanitize, collecting each window's enforcement input.
    let mut injected: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut report = SanitizeReport::default();
    let mut items: Vec<(WindowConstraints, Vec<Vec<f32>>)> = Vec::with_capacity(windows.len());
    for (i, w) in windows.iter_mut().enumerate() {
        let salt = i as u64;
        for e in inject_window(&plan, salt, w) {
            *injected.entry(e.kind.label()).or_default() += 1;
        }
        report.merge(sanitize_window(w, &san_cfg));
        let mut series = model.impute(w);
        for e in inject_series(&plan, salt, &mut series) {
            *injected.entry(e.kind.label()).or_default() += 1;
        }
        report.merge(sanitize_series(&mut series));
        items.push((WindowConstraints::from_window(w), series));
    }

    // Stage B: the ladder, batched — parallel across windows when
    // --jobs != 1, memoized unless --no-cache.
    let outs = run_ladder(&items, &ladder_cfg, jobs, use_cache);
    let (level_counts, intervals, violations) = summarize_outcomes(&items, &outs);

    let injected_total: usize = injected.values().sum();
    let injected_str: Vec<String> = injected.iter().map(|(k, n)| format!("{k}={n}")).collect();
    println!(
        "fault-run: seed={seed} windows={} intervals={intervals} jobs={jobs} cache={}",
        windows.len(),
        if use_cache { "on" } else { "off" },
    );
    println!(
        "  plan: chaos preset, expected corruption rate {:.1}%",
        plan.expected_coarse_rate() * 100.0
    );
    println!(
        "  injected: total={injected_total} ({})",
        injected_str.join(",")
    );
    println!("  sanitizer: {}", report.summary());
    println!("  ladder: {}", ladder_summary(&level_counts));
    println!(
        "  train: epochs={} rollbacks={rollbacks} final_loss={:.4}",
        stats.len(),
        stats.last().map_or(f32::NAN, |s| s.mean_loss)
    );
    println!("violations={violations}");
    log_event!(
        "cli.fault_run.done",
        "injected" = injected_total,
        "artifacts" = report.total(),
        "violations" = violations,
        "rollbacks" = rollbacks,
    );

    if violations > 0 {
        return Err(CliError::Invalid(format!(
            "{violations} window(s) violated their effective constraints"
        )));
    }
    Ok(())
}

/// Deterministic simulation testing: run seeded schedules of client ops,
/// transport faults, and worker panics against the full server over the
/// in-memory transport, checking every reply against the reference
/// protocol model. Exit is non-zero iff any seed reports a violation
/// (or, with `--inject-bug`, iff the bug is *not* caught and reproduced).
/// `--cluster` puts a router and N backend shards in front of the
/// clients; its range runs twice and must reproduce bitwise.
fn cmd_simtest(args: &Args) -> Result<(), CliError> {
    let wire = parse_wire(args)?;
    let (sweep, rerun) = if args.flag("cluster") {
        if args.get_string("inject-bug").is_some() {
            return Err(CliError::Usage(
                "--inject-bug is a single-node mode (the planted bug lives in the \
                 backend replay path; use it without --cluster)"
                    .into(),
            ));
        }
        let d = fmml_simtest::ClusterSimConfig::default();
        let cfg = fmml_simtest::ClusterSimConfig {
            seeds: args.get_or("seeds", d.seeds)?,
            start_seed: args.get_or("seed", d.start_seed)?,
            clients: args.get_or("clients", d.clients)?,
            backends: args.get_or("backends", d.backends)?,
            ops: args.get_or("ops", d.ops)?,
            wire,
        };
        if cfg.seeds == 0 || cfg.backends == 0 {
            return Err(CliError::Usage(
                "--seeds and --backends must be at least 1".into(),
            ));
        }
        (fmml_simtest::sweep::cluster(&cfg), "--cluster ")
    } else {
        let inject_bug = match args.get_string("inject-bug") {
            None => None,
            Some("replay-off-by-one") => Some(fmml_serve::ProtocolBug::ReplayOffByOne),
            Some(other) => {
                return Err(CliError::Usage(format!(
                    "unknown --inject-bug {other:?} (known: replay-off-by-one)"
                )))
            }
        };
        let d = fmml_simtest::SimtestConfig::default();
        let cfg = fmml_simtest::SimtestConfig {
            seeds: args.get_or("seeds", d.seeds)?,
            start_seed: args.get_or("seed", d.start_seed)?,
            clients: args.get_or("clients", d.clients)?,
            ops: args.get_or("ops", d.ops)?,
            inject_bug,
            wire,
        };
        if cfg.seeds == 0 {
            return Err(CliError::Usage("--seeds must be at least 1".into()));
        }
        if cfg.inject_bug.is_some() {
            let caught = fmml_simtest::sweep::catch_bug(&cfg).map_err(CliError::Invalid)?;
            println!("FMML_SIM_SEED={}", caught.seed);
            for v in &caught.violations {
                println!("  violation: {v}");
            }
            println!(
                "simtest: injected bug caught at seed {} and reproduced bitwise \
                 (fingerprint {:016x})",
                caught.seed, caught.fingerprint
            );
            return Ok(());
        }
        (fmml_simtest::sweep::single(&cfg), "")
    };

    for o in &sweep.outcomes {
        if args.flag("json") {
            use serde_json::Value;
            let line = Value::Object(vec![
                ("seed".into(), Value::U64(o.seed)),
                (
                    "fingerprint".into(),
                    Value::String(format!("{:016x}", o.fingerprint)),
                ),
                ("delayed".into(), Value::U64(o.faults.delayed)),
                ("migrations".into(), Value::U64(o.migrations)),
                ("resumes".into(), Value::U64(o.resumes)),
                (
                    "violations".into(),
                    Value::Array(o.violations.iter().cloned().map(Value::String).collect()),
                ),
            ]);
            println!("{line}");
        }
        if !o.violations.is_empty() {
            println!("FMML_SIM_SEED={}", o.seed);
            for v in &o.violations {
                println!("  violation: {v}");
            }
        }
    }
    for (seed, a, b) in &sweep.irreproducible {
        println!("seed {seed} NOT reproducible: {a:016x} vs {b:016x}");
    }
    let params = sweep.params.iter().map(|(k, v)| format!("{k}={v} "));
    let sum = |f: fn(&fmml_simtest::SeedOutcome) -> u64| sweep.outcomes.iter().map(f).sum::<u64>();
    println!(
        "simtest {rerun}{}: {} violating seed(s), delayed={} migrations={} resumes={}, \
         fingerprint {:016x}, {:.1}s",
        params.collect::<String>().trim_end(),
        sweep.violating().count(),
        sum(|o| o.faults.delayed),
        sum(|o| o.migrations),
        sum(|o| o.resumes),
        sweep.fingerprint,
        sweep.wall.as_secs_f64()
    );
    log_event!(
        "simtest.done",
        "violating" = sweep.violating().count() as u64,
        "fingerprint" = sweep.fingerprint,
    );
    sweep.verdict().map_err(|e| {
        CliError::Invalid(format!(
            "{e}; re-run one with `fmml simtest {rerun}--seeds 1 --seed <seed>`"
        ))
    })?;
    if let Some(path) = args.get_string("pinned") {
        let pin = sweep.check_pin(Path::new(path));
        match pin.map_err(CliError::Invalid)? {
            fmml_simtest::Pin::Written => println!("pinned fingerprint written to {path}"),
            fmml_simtest::Pin::Verified => println!("pinned fingerprint verified"),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The verbs `USAGE` lists are the ones `VERBS` runs, in order, and
    /// each one's block names exactly the flags its entry takes.
    #[test]
    fn usage_names_exactly_the_flags_each_verb_takes() {
        let commands = USAGE.split("COMMANDS:\n").nth(1).expect("COMMANDS");
        let commands = commands.split("\nGLOBAL FLAGS:").next().unwrap();
        let mut usage: Vec<(&str, BTreeSet<&str>)> = Vec::new();
        for line in commands.lines() {
            if let Some(verb) = line.strip_prefix("  ").filter(|l| !l.starts_with(' ')) {
                let verb = verb.split_whitespace().next().unwrap();
                usage.push((verb, BTreeSet::new()));
            }
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            let flags = words.filter_map(|w| w.strip_prefix("--"));
            usage.last_mut().expect("a verb line first").1.extend(flags);
        }
        let table: Vec<(&str, BTreeSet<&str>)> = VERBS
            .iter()
            .map(|(verb, _, flags)| (*verb, flags.split_whitespace().collect()))
            .collect();
        assert_eq!(usage, table);
    }
}
