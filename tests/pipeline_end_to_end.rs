//! End-to-end pipeline test through the umbrella crate's public API:
//! simulate → sample → train → impute → enforce → score. Asserts the
//! properties that must hold at any scale, and that `results/` and the
//! generated blocks of EXPERIMENTS.md are what the code produces.

use fmml::core::eval::{run_table1, splice, table1, EvalConfig, Method, Setup, PAPER, SMOKE};
use fmml::core::train::LossKind;
use std::path::Path;
use std::sync::OnceLock;

/// The smoke-scale set-up, trained once for every test in this binary.
fn smoke() -> &'static Setup {
    static SMOKE: OnceLock<Setup> = OnceLock::new();
    SMOKE.get_or_init(|| Setup::new(EvalConfig::smoke()))
}

#[test]
fn table1_smoke_has_guaranteed_structure() {
    let report = table1(smoke());
    assert_eq!(report.methods.len(), 4);
    let labels: Vec<&str> = report.methods.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        labels,
        vec![
            "IterImputer",
            "Transformer",
            "Transformer+KAL",
            "Transformer+KAL+CEM"
        ]
    );
    // Hard guarantees (independent of training quality):
    // CEM nullifies rows a-c.
    let cem = &report.methods[3].1;
    assert_eq!(cem.values[0].1, 0.0);
    assert_eq!(cem.values[1].1, 0.0);
    assert_eq!(cem.values[2].1, 0.0);
    // IterativeImputer retains samples, so its periodic error is exactly 0
    // in our implementation (the paper's 0.078 comes from its resampling).
    let iter = &report.methods[0].1;
    assert_eq!(iter.values[1].1, 0.0);
    // All 36 cells finite and non-negative.
    for (_, row) in &report.methods {
        for (_, v) in &row.values {
            assert!(v.is_finite() && *v >= 0.0);
        }
    }
}

/// Every deterministic smoke scenario, run fresh, writes exactly the
/// committed `results/` files: what EXPERIMENTS.md embeds is what the
/// code prints. `fmml eval` at the repository root regenerates them.
#[test]
fn smoke_results_files_match_a_fresh_run() {
    for scenario in SMOKE.iter().filter(|s| s.deterministic) {
        for (name, fresh) in (scenario.run)(smoke()).files(scenario.name) {
            assert_committed(&name, &fresh);
        }
    }
}

/// The paper-scale twin: `results/table1_paper.out` is what a fresh
/// `fmml eval --paper` prints. About two minutes in release, so it runs
/// in CI's release step (`cargo test --release -p fmml -- --ignored`).
#[test]
#[ignore]
fn table1_paper_matches_a_fresh_run() {
    let table1 = &PAPER[0];
    assert_eq!(table1.name, "table1_paper");
    for (name, fresh) in (table1.run)(&Setup::new(EvalConfig::paper())).files(table1.name) {
        assert_committed(&name, &fresh);
    }
}

fn assert_committed(name: &str, fresh: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(name);
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("results/{name}: {e}"));
    assert!(
        committed == fresh,
        "results/{name} is not what the code prints now; rerun `fmml eval`"
    );
}

/// Every generated block of EXPERIMENTS.md equals the results file it
/// names.
#[test]
fn experiments_md_blocks_match_the_results_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).unwrap();
    let fresh = splice(&doc, |p| std::fs::read_to_string(root.join(p))).unwrap();
    if let Some((line, (want, got))) = fresh
        .lines()
        .zip(doc.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!(
            "EXPERIMENTS.md line {} differs from its results file:\n  file: {want}\n  doc:  {got}\nrerun `fmml eval`",
            line + 1
        );
    }
    assert_eq!(
        fresh, doc,
        "EXPERIMENTS.md blocks are stale; rerun `fmml eval`"
    );
}

#[test]
fn method_labels_are_stable() {
    assert_eq!(Method::ALL.len(), 4);
    assert_eq!(Method::TransformerKalCem.label(), "Transformer+KAL+CEM");
}

#[test]
fn mse_configuration_runs_too() {
    // The EMD-vs-MSE ablation path must work through the same harness.
    let mut cfg = EvalConfig::smoke();
    cfg.train.loss = LossKind::Mse;
    cfg.train.epochs = 1;
    cfg.train_runs = 1;
    let report = run_table1(&cfg);
    assert_eq!(report.methods.len(), 4);
}
