//! Quickstart: the full FM+ML pipeline on one screen.
//!
//! Simulates a small switch, samples coarse telemetry, trains a
//! knowledge-augmented transformer, imputes a held-out window, and runs
//! the Constraint Enforcement Module — printing the consistency errors
//! before and after each stage.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fmml::core::eval::{generate_windows, EvalConfig};
use fmml::core::imputer::Imputer;
use fmml::core::train::train;
use fmml::fm::cem::{enforce_degraded, DegradationLevel, LadderConfig};
use fmml::fm::WindowConstraints;

fn main() {
    // A scaled-down configuration that runs in seconds; see
    // `fmml eval --paper` for the paper-scale pipeline.
    let mut cfg = EvalConfig::smoke();
    cfg.train.kal = Some(cfg.kal);

    println!("simulating {} training runs…", cfg.train_runs);
    let train_windows = generate_windows(&cfg, cfg.seed, cfg.train_runs);
    let test_windows = generate_windows(&cfg, cfg.seed + 1000, cfg.test_runs);
    println!(
        "  {} training windows, {} test windows ({} fine bins, {}x zoom)",
        train_windows.len(),
        test_windows.len(),
        cfg.window_len,
        cfg.interval_len,
    );

    println!("training Transformer+KAL ({} epochs)…", cfg.train.epochs);
    let (model, stats) = train(&train_windows, cfg.scales(), &cfg.train);
    println!(
        "  loss {:.4} -> {:.4}, |phi| {:.4} -> {:.4}",
        stats.first().unwrap().mean_loss,
        stats.last().unwrap().mean_loss,
        stats.first().unwrap().mean_phi_abs,
        stats.last().unwrap().mean_phi_abs,
    );

    // Impute the burstiest test window and enforce the constraints.
    let w = test_windows
        .iter()
        .max_by_key(|w| w.peak_max())
        .expect("test windows exist");
    let raw = model.impute(w);
    let wc = WindowConstraints::from_window(w);
    println!(
        "\nimputed window (port {}, start bin {}):",
        w.port, w.start_bin
    );
    println!(
        "  before CEM: C1 err {:.3}  C2 err {:.3}  C3 err {:.3}",
        wc.c1_error(&raw),
        wc.c2_error(&raw),
        wc.c3_error(&raw),
    );

    let out = enforce_degraded(&wc, &raw, &LadderConfig::default());
    assert!(
        out.levels.iter().all(|&l| l == DegradationLevel::Full),
        "simulator data is feasible: {}",
        out.summary()
    );
    let corrected: Vec<Vec<f32>> = out
        .corrected
        .iter()
        .map(|q| q.iter().map(|&v| v as f32).collect())
        .collect();
    println!(
        "  after  CEM: C1 err {:.3}  C2 err {:.3}  C3 err {:.3}  (changed {} packets total)",
        wc.c1_error(&corrected),
        wc.c2_error(&corrected),
        wc.c3_error(&corrected),
        out.objective,
    );
    assert!(wc.satisfied_exact(&out.corrected));
    println!("\nCEM output provably satisfies C1 ∧ C2 ∧ C3 — see DESIGN.md for the full map.");
}
