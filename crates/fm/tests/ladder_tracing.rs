//! Trace context across the ladder's worker threads.
//!
//! With `jobs > 1` the ladder solves a window's intervals on the rayon
//! pool's threads, which do not inherit the caller's trace context; the
//! ladder hands it over by hand. This binary holds one test because the
//! tracing switch is process-wide.

use fmml_fm::cem::{enforce_degraded_with, DegradationLevel, EnforceOptions, LadderConfig};
use fmml_fm::WindowConstraints;
use fmml_obs::trace;

/// `intervals` feasible intervals of 5 steps over 2 queues.
fn window(intervals: usize) -> (WindowConstraints, Vec<Vec<f32>>) {
    let w = WindowConstraints {
        interval_len: 5,
        len: 5 * intervals,
        maxes: vec![vec![4; intervals], vec![1; intervals]],
        samples: vec![vec![1; intervals], vec![0; intervals]],
        sent: vec![4; intervals],
    };
    let imputed = vec![
        [0.2, 3.7, 4.4, 2.0, 1.1].repeat(intervals),
        [0.0, 0.9, 1.2, 0.0, 0.0].repeat(intervals),
    ];
    (w, imputed)
}

#[test]
fn parallel_interval_solves_carry_the_callers_trace_id() {
    const INTERVALS: usize = 16;
    let (w, imputed) = window(INTERVALS);
    trace::set_enabled(true);
    let root = trace::root("test.window");
    let id = root.trace_id();
    let out = enforce_degraded_with(
        &w,
        &imputed,
        &LadderConfig::default(),
        &EnforceOptions::new(2, None),
    );
    drop(root);
    let snap = trace::snapshot();
    trace::set_enabled(false);

    assert!(out.levels.iter().all(|&l| l == DegradationLevel::Full));
    let solves: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.name == "cem.solve")
        .collect();
    assert_eq!(solves.len(), INTERVALS, "one cem.solve span per interval");
    for s in solves {
        assert_eq!(s.trace_id, id, "cem.solve outside the root's trace: {s:?}");
    }
}
