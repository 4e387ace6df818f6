//! Real-time imputation (§5, "Towards practical network telemetry
//! imputation"): intervals arrive one by one, the streaming imputer emits
//! the fine-grained series of each new interval and we check whether the
//! per-interval latency fits inside the 50 ms telemetry period — i.e.
//! whether imputation keeps up with the wire.
//!
//! The enforcement stage runs through the full degradation ladder with a
//! shared solution cache, so repeated intervals are answered from memo and
//! every emitted interval is annotated with the ladder rung it landed on.
//!
//! ```text
//! cargo run --release --example realtime_stream
//! ```

use fmml::core::eval::{generate_windows, EvalConfig};
use fmml::core::streaming::{IntervalUpdate, StreamOptions, StreamingImputer};
use fmml::core::train::{train, TrainConfig};
use fmml::core::transformer_imputer::Scales;
use fmml::fm::cem::SolutionCache;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let cfg = EvalConfig::smoke();
    let scales = Scales {
        qlen: cfg.sim.buffer_packets as f32,
        count: (cfg.sim.pkts_per_ms() as usize * cfg.interval_len) as f32,
    };
    eprintln!("training Transformer+KAL…");
    let train_windows = generate_windows(&cfg, cfg.seed, cfg.train_runs);
    let kal_cfg = TrainConfig {
        kal: Some(cfg.kal),
        ..cfg.train.clone()
    };
    let (model, _) = train(&train_windows, scales, &kal_cfg);

    // Replay held-out telemetry interval-by-interval, port by port.
    let test_windows = generate_windows(&cfg, cfg.seed + 1000, cfg.test_runs + 2);
    let w0 = &test_windows[0];
    let budget = Duration::from_millis(cfg.interval_len as u64); // one interval of wall-clock

    // The degradation ladder plus a solution cache shared across
    // (potential) streams. Each tick enforces the one interval it emits.
    let cache = Arc::new(SolutionCache::new(fmml::fm::cem::cache::DEFAULT_CAPACITY));
    let opts = StreamOptions {
        cache: Some(Arc::clone(&cache)),
        ..StreamOptions::default()
    };
    let mut imputer = StreamingImputer::with_options(
        &model,
        opts,
        w0.port,
        w0.num_queues(),
        cfg.interval_len,
        w0.intervals(),
    );

    let mut emitted = 0usize;
    let mut within_budget = 0usize;
    println!(
        "streaming {} windows of port-{} telemetry…\n",
        test_windows.len(),
        w0.port
    );
    for w in test_windows.iter().filter(|w| w.port == w0.port) {
        for k in 0..w.intervals() {
            if let Some(out) = imputer.push(IntervalUpdate::from_window(w, k)) {
                emitted += 1;
                if out.latency <= budget {
                    within_budget += 1;
                }
                if emitted <= 5 {
                    println!(
                        "  interval #{emitted}: imputed {}x{} bins in {:?} (level: {}, enforced: {})",
                        out.series.len(),
                        out.series[0].len(),
                        out.latency,
                        out.level.label(),
                        out.enforced,
                    );
                }
            }
        }
    }
    let cs = cache.stats();
    println!("\nprocessed {emitted} intervals:");
    println!("  mean latency  {:?}", imputer.mean_latency());
    println!("  worst latency {:?}", imputer.worst_latency());
    println!(
        "  cache         {} hits / {} misses ({} entries)",
        cs.hits, cs.misses, cs.len
    );
    println!(
        "  {within_budget}/{emitted} within the {budget:?} telemetry period — {}",
        if within_budget == emitted {
            "imputation keeps up with the wire"
        } else {
            "some intervals lag the wire; shrink the model or batch ports"
        }
    );
}
