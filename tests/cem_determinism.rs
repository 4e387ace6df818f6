//! Determinism contract of the tuned CEM paths: **parallelism and
//! caching change the wall-clock and nothing else**.
//!
//! For three fixed seeds, the same batch of `(constraints, prediction)`
//! items — both clean and chaos-fault-injected — is enforced through
//! every `EnforceOptions` combination (`jobs` ∈ {1, 4, 0 = auto} ×
//! cache on/off, plus a shared warm cache reused across calls). All
//! runs must produce *bitwise identical* corrected windows, identical
//! per-interval [`DegradationLevel`]s, identical objectives, and
//! identical relaxations vs the sequential uncached reference.
//!
//! The same independence argument, stated one level down: enforcing a
//! single interval on its own equals its slice of enforcing the whole
//! window, which is what lets the serving path enforce only the interval
//! it ships.
//!
//! The guarantee holds only with `deadline: None` (the default): with a
//! wall-clock deadline, clamp decisions depend on elapsed time in both
//! the sequential and the tuned paths, so determinism is out of scope
//! by design (see DESIGN.md §8).

use fmml::fault::{inject_series, inject_window, FaultPlan};
use fmml::fm::cem::{
    enforce_degraded_batch, enforce_degraded_with, EnforceOptions, LadderConfig, SolutionCache,
};
use fmml::fm::WindowConstraints;
use fmml::netsim::traffic::TrafficConfig;
use fmml::netsim::{SimConfig, Simulation};
use fmml::telemetry::{sanitize_series, sanitize_window, windows_from_trace, SanitizeConfig};

const SEEDS: [u64; 3] = [7, 21, 1234];

/// Clean items: real windows with a rescaled-truth prediction.
fn clean_items(seed: u64) -> Vec<(WindowConstraints, Vec<Vec<f32>>)> {
    let cfg = SimConfig::small();
    let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.6);
    let gt = Simulation::new(cfg, traffic, seed).run_ms(300);
    windows_from_trace(&gt, 300, 50, 300)
        .into_iter()
        .filter(|w| w.has_activity())
        .map(|w| {
            let pred: Vec<Vec<f32>> = w
                .truth
                .iter()
                .map(|q| q.iter().map(|&v| v * 1.3 + 0.4).collect())
                .collect();
            (WindowConstraints::from_window(&w), pred)
        })
        .collect()
}

/// Chaos items: the same windows put through fault injection and the
/// sanitizer, so the ladder actually exercises its lower rungs.
fn chaos_items(seed: u64) -> Vec<(WindowConstraints, Vec<Vec<f32>>)> {
    let cfg = SimConfig::small();
    let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.6);
    let gt = Simulation::new(cfg.clone(), traffic, seed).run_ms(300);
    let san_cfg = SanitizeConfig::for_sim(cfg.buffer_packets, 50);
    let plan = FaultPlan::chaos(seed);
    windows_from_trace(&gt, 300, 50, 300)
        .into_iter()
        .filter(|w| w.has_activity())
        .enumerate()
        .map(|(i, mut w)| {
            let salt = i as u64;
            inject_window(&plan, salt, &mut w);
            sanitize_window(&mut w, &san_cfg);
            let mut pred: Vec<Vec<f32>> = w
                .truth
                .iter()
                .map(|q| q.iter().map(|&v| v * 1.7 + 1.0).collect())
                .collect();
            inject_series(&plan, salt, &mut pred);
            sanitize_series(&mut pred);
            (WindowConstraints::from_window(&w), pred)
        })
        .collect()
}

/// Run one batch under every tuned option combination and assert each
/// result is identical (PartialEq over corrected + levels + objective +
/// relaxed) to the sequential, uncached reference.
fn assert_all_variants_identical(
    label: &str,
    seed: u64,
    items: &[(WindowConstraints, Vec<Vec<f32>>)],
    cfg: &LadderConfig,
) {
    assert!(!items.is_empty(), "{label}/seed {seed}: no active windows");
    let reference = enforce_degraded_batch(items, cfg, &EnforceOptions::default());

    let cache = SolutionCache::new(fmml::fm::cem::cache::DEFAULT_CAPACITY);
    let variants: [(&str, usize, bool); 5] = [
        ("jobs=4 cache=off", 4, false),
        ("jobs=1 cache=on(cold)", 1, true),
        ("jobs=4 cache=on(warm)", 4, true),
        ("jobs=0(auto) cache=on(warm)", 0, true),
        ("jobs=1 cache=on(warm)", 1, true),
    ];
    for (name, jobs, use_cache) in variants {
        let opts = EnforceOptions::new(jobs, use_cache.then_some(&cache));
        let outs = enforce_degraded_batch(items, cfg, &opts);
        assert_eq!(outs.len(), reference.len());
        for (i, (out, refr)) in outs.iter().zip(&reference).enumerate() {
            assert_eq!(
                out.corrected, refr.corrected,
                "{label}/seed {seed}/{name}: corrected series diverged in window {i}"
            );
            assert_eq!(
                out.levels, refr.levels,
                "{label}/seed {seed}/{name}: degradation levels diverged in window {i}"
            );
            assert_eq!(
                out.objective, refr.objective,
                "{label}/seed {seed}/{name}: objective diverged in window {i}"
            );
            assert_eq!(
                out.relaxed, refr.relaxed,
                "{label}/seed {seed}/{name}: relaxation diverged in window {i}"
            );
        }
    }
    // The warm passes above must actually have hit the cache — otherwise
    // this test isn't exercising the memoized path at all.
    let stats = cache.stats();
    assert!(
        stats.hits > 0,
        "{label}/seed {seed}: warm passes never hit the cache \
         (hits={} misses={})",
        stats.hits,
        stats.misses
    );
}

#[test]
fn ladder_batch_is_bitwise_identical_across_jobs_and_cache() {
    let cfg = LadderConfig::default();
    for seed in SEEDS {
        assert_all_variants_identical("clean", seed, &clean_items(seed), &cfg);
        assert_all_variants_identical("chaos", seed, &chaos_items(seed), &cfg);
    }
}

/// Interval `k` of an item as a one-interval item of its own.
fn interval_slice(
    wc: &WindowConstraints,
    pred: &[Vec<f32>],
    k: usize,
) -> (WindowConstraints, Vec<Vec<f32>>) {
    let l = wc.interval_len;
    let one = WindowConstraints {
        interval_len: l,
        len: l,
        maxes: wc.maxes.iter().map(|m| vec![m[k]]).collect(),
        samples: wc.samples.iter().map(|s| vec![s[k]]).collect(),
        sent: vec![wc.sent[k]],
    };
    let pred = pred
        .iter()
        .map(|q| q[k * l..(k + 1) * l].to_vec())
        .collect();
    (one, pred)
}

/// DESIGN §8's interval independence, stated directly: enforcing interval
/// `k` alone gives slice `k` of enforcing the whole window — series,
/// level, relaxed right-hand sides — and the objectives add up. This is
/// what lets the serving path enforce only the interval it ships.
#[test]
fn one_interval_enforcement_equals_its_slice_of_the_whole_window() {
    let cfg = LadderConfig::default();
    let opts = EnforceOptions::default();
    for seed in SEEDS {
        let items = clean_items(seed).into_iter().chain(chaos_items(seed));
        for (i, (wc, pred)) in items.enumerate() {
            let whole = enforce_degraded_with(&wc, &pred, &cfg, &opts);
            let l = wc.interval_len;
            let mut objective = 0;
            for k in 0..wc.intervals() {
                let at = format!("seed {seed}/item {i}/interval {k}");
                let (one_wc, one_pred) = interval_slice(&wc, &pred, k);
                let one = enforce_degraded_with(&one_wc, &one_pred, &cfg, &opts);
                for (q, series) in one.corrected.iter().enumerate() {
                    assert_eq!(
                        series[..],
                        whole.corrected[q][k * l..(k + 1) * l],
                        "{at}: corrected series diverged in queue {q}"
                    );
                }
                assert_eq!(one.levels, [whole.levels[k]], "{at}: level diverged");
                let (want, _) = interval_slice(whole.effective_constraints(&wc), &pred, k);
                assert_eq!(
                    one.effective_constraints(&one_wc),
                    &want,
                    "{at}: relaxed right-hand sides diverged"
                );
                assert_eq!(one.relaxed.is_some(), want != one_wc, "{at}: relaxed flag");
                objective += one.objective;
            }
            assert_eq!(
                objective, whole.objective,
                "seed {seed}/item {i}: objectives do not add up"
            );
        }
    }
}
