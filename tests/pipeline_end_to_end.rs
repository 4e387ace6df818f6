//! End-to-end pipeline test through the umbrella crate's public API:
//! simulate → sample → train → impute → enforce → score. Asserts the
//! properties that must hold at any scale, and that `results/` and the
//! generated blocks of EXPERIMENTS.md are what the code produces.

use fmml::core::eval::{
    generate_windows, run_table1, splice, table1, EvalConfig, EvalReport, Method, Setup, PAPER,
    REPRODUCED_CLAIMS, SMOKE,
};
use fmml::core::train::{train, LossKind, TrainConfig};
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
    assert_table1_shape(&report);
}

/// The paper's Table 1 shape as far as it reproduces: every claim but
/// the last holds, and the last is pinned the way it comes out —
/// IterImputer beats both transformer columns on burst detection (row d)
/// and burst interarrival time (row g).
fn assert_table1_shape(report: &EvalReport) {
    let shape = report.shape();
    assert!(shape[..REPRODUCED_CLAIMS].iter().all(|c| c.0), "{shape:?}");
    assert_eq!(shape.len(), REPRODUCED_CLAIMS + 1);
    let cell = |m: Method, r: usize| report.methods[m as usize].1.values[r].1;
    for row in [3, 6] {
        let transformers = [Method::Transformer, Method::TransformerKal];
        let iter = cell(Method::IterativeImputer, row);
        assert!(
            transformers.iter().all(|&m| iter < cell(m, row)),
            "row {row}"
        );
    }
}

/// A dead model fails here: both transformers end training with output
/// above 0 on a fair share of steps, and the plain one fits the training
/// windows better than the all-zero series it starts from.
#[test]
fn smoke_models_train() {
    let cfg = EvalConfig::smoke();
    let windows = generate_windows(&cfg, cfg.seed, cfg.train_runs);
    // `train` starts at the all-zero predictor and at lr 0 stays there:
    // its epoch's loss is the all-zero series' EMD on the same windows.
    let zero_cfg = TrainConfig {
        epochs: 1,
        lr: 0.0,
        ..cfg.train.clone()
    };
    let zero_emd = train(&windows, cfg.scales(), &zero_cfg).1[0].mean_loss;
    let setup = smoke();
    let loss = setup.plain_stats.last().unwrap().mean_loss;
    assert!(
        loss < zero_emd,
        "last epoch's EMD {loss}, all-zero {zero_emd}"
    );
    for stats in [&setup.plain_stats, &setup.kal_stats] {
        let share = stats.last().unwrap().nonzero_share;
        assert!(share > 0.2, "last epoch's nonzero share {share}");
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
    let setup = Setup::new(EvalConfig::paper());
    assert_table1_shape(&table1(&setup));
    let scenario = &PAPER[0];
    assert_eq!(scenario.name, "table1_paper");
    for (name, fresh) in (scenario.run)(&setup).files(scenario.name) {
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
