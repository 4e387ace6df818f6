//! Black-box tests of the `fmml` binary.

use std::path::Path;
use std::process::Command;

fn fmml(args: &[&str]) -> (String, String, bool) {
    fmml_in(Path::new("."), args)
}

/// Run the binary with `dir` as its working directory.
fn fmml_in(dir: &Path, args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_fmml"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_command_prints_usage() {
    let (stdout, _, ok) = fmml(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("fm-solve"));
}

#[test]
fn simulate_emits_csv_with_expected_columns() {
    let (stdout, _, ok) = fmml(&["simulate", "--ms", "20", "--ports", "2", "--seed", "3"]);
    assert!(ok);
    let mut lines = stdout.lines();
    let header = lines.next().expect("header");
    assert!(header.starts_with("bin,qlen0"));
    assert_eq!(lines.count(), 20, "one row per simulated ms");
}

#[test]
fn telemetry_respects_interval_flag() {
    let (stdout, _, ok) = fmml(&[
        "telemetry",
        "--ms",
        "100",
        "--ports",
        "2",
        "--interval",
        "25",
        "--seed",
        "3",
    ]);
    assert!(ok);
    // 100 ms / 25 ms = 4 intervals + header.
    assert_eq!(stdout.lines().count(), 5);
}

#[test]
fn fm_solve_reports_an_outcome() {
    let (stdout, _, ok) = fmml(&["fm-solve", "--steps", "6", "--budget-secs", "30"]);
    assert!(ok);
    assert!(
        stdout.contains("sat in") || stdout.contains("budget wall"),
        "unexpected output: {stdout}"
    );
}

#[test]
fn stats_flag_prints_metrics_table_on_stderr() {
    let (_, stderr, ok) = fmml(&[
        "simulate", "--ms", "20", "--ports", "2", "--seed", "3", "--stats",
    ]);
    assert!(ok);
    assert!(
        stderr.contains("counter/gauge"),
        "no metrics table: {stderr}"
    );
    assert!(
        stderr.contains("netsim.events"),
        "no netsim counters: {stderr}"
    );
    assert!(
        stderr.contains("netsim.sim_sec_wall_ms"),
        "no histogram row: {stderr}"
    );
}

#[test]
fn eval_stats_json_is_valid_and_covers_the_pipeline() {
    let dir = std::env::temp_dir().join(format!("fmml_cli_stats_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("out.json");
    let (stdout, stderr, ok) = fmml_in(
        &dir,
        &[
            "eval",
            "--epochs",
            "1",
            "--stats-json",
            path.to_str().unwrap(),
        ],
    );
    assert!(ok, "eval failed: {stderr}");
    // Every scenario's report lands under the working directory.
    for name in [
        "table1_smoke.out",
        "fig4_incident.csv",
        "realtime_stream.out",
    ] {
        assert!(
            dir.join("results").join(name).is_file(),
            "no results/{name}"
        );
    }
    // The eval report itself embeds the same snapshot.
    assert!(
        stdout.contains("## Metrics"),
        "no embedded snapshot: {stdout}"
    );
    let json = std::fs::read_to_string(&path).expect("--stats-json file written");
    // Valid JSON (strict parse via the workspace parser in the obs tests;
    // here: structural checks + required keys from all four crates).
    assert!(
        json.starts_with('{') && json.ends_with('}'),
        "not a JSON object: {json}"
    );
    assert_eq!(json.matches("\"counters\"").count(), 1);
    for key in [
        "smt.conflicts",
        "smt.decisions",
        "train.epoch_ms",
        "train.epochs",
        "netsim.events",
        "fm.cem.ladder.windows",
        "fm.cem.ladder.window_us",
    ] {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "missing {key}: {json}"
        );
    }
    // Non-zero work from each of the four instrumented crates.
    for key in [
        "netsim.events",
        "train.epochs",
        "fm.cem.intervals",
        "smt.decisions",
    ] {
        let probe = format!("\"{key}\":0,");
        let probe_end = format!("\"{key}\":0}}");
        assert!(
            !json.contains(&probe) && !json.contains(&probe_end),
            "{key} is zero: {json}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_log_file_emits_jsonl_events() {
    let dir = std::env::temp_dir().join(format!("fmml_cli_runlog_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("run.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_fmml"))
        .args(["simulate", "--ms", "20", "--ports", "2", "--seed", "3"])
        .env("FMML_LOG_FILE", log.to_str().unwrap())
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&log).expect("log file written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "no events logged");
    for line in &lines {
        assert!(line.starts_with("{\"t_us\":"), "bad event line: {line}");
        assert!(line.ends_with('}'), "bad event line: {line}");
    }
    assert!(text.contains("\"event\":\"cli.start\""), "{text}");
    assert!(text.contains("\"event\":\"netsim.run\""), "{text}");
    assert!(text.contains("\"event\":\"cli.done\""), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flags_fail_with_diagnostics() {
    let (_, stderr, ok) = fmml(&["simulate", "--ms", "abc"]);
    assert!(!ok);
    assert!(stderr.contains("invalid value for --ms"));
    let (_, stderr, ok) = fmml(&["simulate", "--load", "7.5"]);
    assert!(!ok);
    assert!(stderr.contains("--load"));
    let (_, stderr, ok) = fmml(&["train"]);
    assert!(!ok);
    assert!(stderr.contains("--out"));
    let (_, stderr, ok) = fmml(&["fm-solve", "--steps", "7"]);
    assert!(!ok);
    assert!(stderr.contains("even"));
}

/// Like [`fmml`] but returns the raw exit code for exit-status tests.
fn fmml_code(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_fmml"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn usage_errors_exit_with_code_2() {
    let (_, stderr, code) = fmml_code(&["simulate", "--ms", "abc"]);
    assert_eq!(code, Some(2), "usage errors are exit code 2: {stderr}");
    let (_, _, code) = fmml_code(&["train"]); // missing --out
    assert_eq!(code, Some(2));
    // Out-of-range flags are usage errors, not panics (exit 101) or
    // silently clamped values. The server verbs also get the flags that
    // stop a server that wrongly starts after a second.
    let quit = ["--addr", "127.0.0.1:0", "--max-secs", "1"];
    let out_of_range: [&[&str]; 7] = [
        &["simulate", "--ports", "0"],
        &["simulate", "--ports", "1"],
        &["telemetry", "--interval", "0"],
        &["fm-solve", "--ports", "0"],
        &["serve", "--workers", "0"],
        &["serve", "--max-batch", "0"],
        &["cluster", "--workers", "0"],
    ];
    for argv in out_of_range {
        let serves = matches!(argv[0], "serve" | "cluster");
        let argv = [argv, if serves { &quit[..] } else { &[] }].concat();
        let (_, stderr, code) = fmml_code(&argv);
        assert_eq!(code, Some(2), "{argv:?}: {stderr}");
        assert!(stderr.contains("must be"), "{argv:?}: {stderr}");
    }
    // An unknown (mistyped or since-removed) command is a usage error
    // too, not a silent USAGE print with exit 0.
    let (_, stderr, code) = fmml_code(&["serve-bnech"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown command"), "{stderr}");
}

/// A flag the verb does not take (a typo, or one since removed) exits
/// 2 naming it, before anything runs: this server would otherwise start
/// and exit 0 after a second.
#[test]
fn unknown_flag_exits_with_code_2() {
    let argv = ["serve", "--max-restarts", "3", "--max-secs", "1"];
    let (_, stderr, code) = fmml_code(&argv);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown flag --max-restarts for serve"),
        "{stderr}"
    );
}

#[test]
fn malformed_model_json_fails_with_actionable_error() {
    let dir = std::env::temp_dir().join(format!("fmml_cli_badmodel_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    std::fs::write(&path, "{\"this is\": \"not a checkpoint\"").unwrap();
    let (_, stderr, code) = fmml_code(&["impute", "--model", path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "data errors are exit code 1: {stderr}");
    assert!(
        stderr.contains("model.json") && stderr.contains("not a valid checkpoint"),
        "error must name the file and the problem: {stderr}"
    );
    // A missing file is an I/O error, also exit code 1, also naming the path.
    let gone = dir.join("nope.json");
    let (_, stderr, code) = fmml_code(&["impute", "--model", gone.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("nope.json"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_run_chaos_smoke_exits_clean_with_zero_violations() {
    let dir = std::env::temp_dir().join(format!("fmml_cli_faultrun_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stats = dir.join("stats.json");
    let log = dir.join("run.jsonl");
    // The fast engine, the SMT rungs, and the SMT rungs on four workers
    // sharing the cache.
    let runs: [&[&str]; 3] = [
        &["--seed", "7"],
        &["--seed", "11", "--smt"],
        &["--seed", "7", "--smt", "--jobs", "4"],
    ];
    for run in runs {
        let out = Command::new(env!("CARGO_BIN_EXE_fmml"))
            .arg("fault-run")
            .args(run)
            .args(["--stats-json", stats.to_str().unwrap()])
            .env("FMML_LOG_FILE", log.to_str().unwrap())
            .output()
            .expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{run:?} failed: {stdout}{stderr}");
        assert!(
            stdout.lines().any(|l| l == "violations=0"),
            "{run:?}: {stdout}"
        );
        assert!(stdout.contains("injected:"), "{run:?}: {stdout}");
        assert!(stdout.contains("rollbacks=1"), "{run:?}: {stdout}");
        // Degradation-ladder counters appear in the metrics snapshot.
        let json = std::fs::read_to_string(&stats).expect("--stats-json written");
        for key in [
            "fm.cem.ladder.windows",
            "fault.injected",
            "telemetry.sanitize.windows",
            "train.rollbacks",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "{run:?}: missing {key}: {json}"
            );
        }
        // The poisoned epoch's rollback is observable in the run log.
        let text = std::fs::read_to_string(&log).expect("run log written");
        assert!(
            text.contains("\"event\":\"train.rollback\""),
            "{run:?}: {text}"
        );
        std::fs::remove_file(&log).expect("each run writes its own log");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn train_resume_continues_from_a_checkpoint() {
    let dir = std::env::temp_dir().join(format!("fmml_cli_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("model.json");
    let out2 = dir.join("model2.json");
    // Tiny run: 1 sim run, short span, 1 epoch.
    let (_, stderr, ok) = fmml(&[
        "train",
        "--out",
        ckpt.to_str().unwrap(),
        "--smoke",
        "--runs",
        "1",
        "--ms",
        "240",
        "--epochs",
        "1",
        "--seed",
        "5",
    ]);
    assert!(ok, "initial train failed: {stderr}");
    // Resume from the checkpoint: the loaded model (its label, scales,
    // and weights) is trained further and re-saved, not re-initialized.
    let log = dir.join("run.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_fmml"))
        .args([
            "train",
            "--out",
            out2.to_str().unwrap(),
            "--resume",
            ckpt.to_str().unwrap(),
            "--smoke",
            "--runs",
            "1",
            "--ms",
            "240",
            "--epochs",
            "1",
            "--seed",
            "5",
        ])
        .env("FMML_LOG_FILE", log.to_str().unwrap())
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out2.exists(), "resumed checkpoint written");
    let text = std::fs::read_to_string(&log).unwrap();
    assert!(text.contains("\"event\":\"train.epoch\""), "{text}");
    // A corrupt --resume file is a data error (exit 1), naming the file.
    std::fs::write(&ckpt, "not json").unwrap();
    let (_, stderr, code) = fmml_code(&[
        "train",
        "--out",
        out2.to_str().unwrap(),
        "--resume",
        ckpt.to_str().unwrap(),
        "--smoke",
        "--runs",
        "1",
        "--ms",
        "240",
        "--epochs",
        "1",
        "--seed",
        "5",
    ]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("model.json"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
