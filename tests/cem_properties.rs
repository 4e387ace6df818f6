//! Property tests: the Constraint Enforcement Module on real windows.
//!
//! For *any* prediction (however wrong), CEM must return a series that
//! exactly satisfies C1–C3; enforcing the ground truth itself must be a
//! no-op (objective 0); and the objective must never beat the L1 distance
//! of the best possible correction (checked by feasibility of the output
//! plus agreement with the SMT optimum elsewhere).

use fmml::core::imputer::{HoldImputer, Imputer};
use fmml::fm::cem::{enforce_degraded, DegradationLevel, LadderConfig, LadderOutcome};
use fmml::fm::WindowConstraints;
use fmml::netsim::traffic::TrafficConfig;
use fmml::netsim::{SimConfig, Simulation};
use fmml::telemetry::{windows_from_trace, PortWindow};
use proptest::prelude::*;

fn windows(seed: u64) -> Vec<PortWindow> {
    let cfg = SimConfig::small();
    let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.6);
    let gt = Simulation::new(cfg, traffic, seed).run_ms(300);
    windows_from_trace(&gt, 300, 50, 300)
        .into_iter()
        .filter(|w| w.has_activity())
        .collect()
}

/// Run the ladder and require every interval at full fidelity: simulator
/// measurements are never contradictory, so no rung below `Full` may fire.
fn enforce_full(wc: &WindowConstraints, pred: &[Vec<f32>]) -> LadderOutcome {
    let out = enforce_degraded(wc, pred, &LadderConfig::default());
    assert!(
        out.levels.iter().all(|&l| l == DegradationLevel::Full),
        "simulator windows are always feasible: {}",
        out.summary()
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cem_output_always_satisfies_constraints(seed in 0u64..2000, noise in 0.0f32..3.0) {
        for w in windows(seed) {
            let wc = WindowConstraints::from_window(&w);
            // An adversarial prediction: truth rescaled and shifted.
            let pred: Vec<Vec<f32>> = w
                .truth
                .iter()
                .map(|q| q.iter().map(|&v| v * noise + noise).collect())
                .collect();
            let out = enforce_full(&wc, &pred);
            prop_assert!(wc.satisfied_exact(&out.corrected));
        }
    }

    #[test]
    fn cem_on_ground_truth_is_a_noop(seed in 0u64..2000) {
        for w in windows(seed) {
            let wc = WindowConstraints::from_window(&w);
            let out = enforce_full(&wc, &w.truth);
            prop_assert_eq!(out.objective, 0, "truth needed correction");
            for (q, series) in out.corrected.iter().enumerate() {
                for (t, &v) in series.iter().enumerate() {
                    prop_assert_eq!(v as f32, w.truth[q][t]);
                }
            }
        }
    }
}

#[test]
fn cem_improves_hold_imputer_consistency() {
    // The sample-and-hold strawman violates C1 everywhere; CEM repairs it
    // and the repair touches no pinned sample.
    for w in windows(77) {
        let wc = WindowConstraints::from_window(&w);
        let pred = HoldImputer.impute(&w);
        let before = wc.c1_error(&pred);
        let out = enforce_full(&wc, &pred);
        let after: Vec<Vec<f32>> = out
            .corrected
            .iter()
            .map(|q| q.iter().map(|&v| v as f32).collect())
            .collect();
        assert_eq!(wc.c1_error(&after), 0.0);
        assert!(wc.c1_error(&after) <= before);
        for (q, positions) in std::iter::repeat_n(w.sample_positions(), w.num_queues()).enumerate()
        {
            for (k, &pos) in positions.iter().enumerate() {
                assert_eq!(out.corrected[q][pos], w.samples[q][k], "sample moved");
            }
        }
    }
}
