//! Real-time (streaming) telemetry imputation — the paper's §5
//! "strict timing requirements" direction, built ahead as a working
//! subsystem.
//!
//! An operator's collector receives one coarse interval of telemetry per
//! queue every 50 ms. [`StreamingImputer`] ingests these increments,
//! keeps a sliding window of the most recent intervals per port, and on
//! every completed interval runs the transformer over the window and
//! corrects the **newest interval** — the only one a tick ships —
//! through the CEM degradation ladder, yielding its fine-grained series
//! within a measured, bounded latency, annotated with the
//! [`DegradationLevel`] the ladder landed on. Only what is shipped is
//! computed: C1–C3 are interval-local, so the older intervals of the
//! window, shipped on earlier ticks, give the newest one's correction
//! nothing; and the model's last encoder block computes the newest
//! interval's rows only — the older rows reach them as keys and values,
//! not as outputs anyone reads. Tasks like
//! performance-driven routing or attack detection (§5) would subscribe to
//! [`ImputedInterval`]s.
//!
//! The enforcement stage is the tuned PR-3 path: [`StreamOptions`]
//! carries a [`LadderConfig`] (engine, escalation, breaker)
//! plus the worker count and an optional shared [`SolutionCache`], so a
//! fleet of per-port imputers — or the multi-tenant `fmml-serve` server —
//! can share one memo cache across streams.
//!
//! For batched serving, ingestion and enforcement are split:
//! [`StreamingImputer::try_prepare_newest`] does the sliding-window
//! bookkeeping and the model forward pass, returning the newest interval
//! as a one-interval `(constraints, prediction)` pair that can be
//! coalesced with other tenants' items into one `enforce_degraded_batch`
//! call whose outcome *is* the reply. [`StreamingImputer::try_push`] is
//! the single-stream convenience that does both steps in one call.
//! [`StreamingImputer::try_prepare`] / [`PreparedWindow`] are the
//! whole-window reference for both: same ingestion, the whole forward.

use crate::imputer::Imputer;
use crate::transformer_imputer::TransformerImputer;
use fmml_fm::cem::{
    enforce_degraded_with, CemEngine, DegradationLevel, EnforceOptions, LadderConfig, SolutionCache,
};
use fmml_fm::WindowConstraints;
use fmml_telemetry::PortWindow;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One coarse interval of one port, as a collector would deliver it (and
/// as the `fmml-serve` wire protocol carries it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalUpdate {
    pub port: usize,
    /// `samples[q]`: periodic sample of each queue.
    pub samples: Vec<u32>,
    /// `maxes[q]`: LANZ max of each queue.
    pub maxes: Vec<u32>,
    pub sent: u32,
    pub dropped: u32,
    pub received: u32,
}

impl IntervalUpdate {
    /// Slice interval `k` of an offline window into an update (testing /
    /// replay convenience).
    pub fn from_window(w: &PortWindow, k: usize) -> IntervalUpdate {
        IntervalUpdate {
            port: w.port,
            samples: (0..w.num_queues()).map(|q| w.samples[q][k]).collect(),
            maxes: (0..w.num_queues()).map(|q| w.maxes[q][k]).collect(),
            sent: w.sent[k],
            dropped: w.dropped[k],
            received: w.received[k],
        }
    }
}

/// Why an [`IntervalUpdate`] was rejected at ingestion. Malformed updates
/// are *errors*, never panics — streamed telemetry is exactly the input
/// the fault-injection harness corrupts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The update belongs to a different port than this imputer tracks.
    PortMismatch { expected: usize, got: usize },
    /// `samples`/`maxes` lengths disagree with each other or with the
    /// configured queue count.
    ShapeMismatch {
        expected_queues: usize,
        samples: usize,
        maxes: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::PortMismatch { expected, got } => {
                write!(
                    f,
                    "update for a different port: expected {expected}, got {got}"
                )
            }
            IngestError::ShapeMismatch {
                expected_queues,
                samples,
                maxes,
            } => write!(
                f,
                "queue shape mismatch: expected {expected_queues} queues, \
                 got {samples} samples and {maxes} maxes"
            ),
        }
    }
}

impl std::error::Error for IngestError {}

/// Execution knobs for the streaming enforcement stage: the degradation
/// ladder configuration plus PR-3's parallelism/memoization options.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Ladder configuration (engine, escalation, breaker). Its `deadline`
    /// is counted from the start of the one-interval enforcement, so it
    /// has nothing to cut short; leave it `None`.
    pub ladder: LadderConfig,
    /// Worker threads for interval-level parallelism (`1` = sequential).
    pub jobs: usize,
    /// Optional solution cache, shareable across imputers and tenants.
    pub cache: Option<Arc<SolutionCache>>,
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions {
            ladder: LadderConfig::default(),
            jobs: 1,
            cache: None,
        }
    }
}

impl StreamOptions {
    /// The [`EnforceOptions`] view borrowing this struct's cache.
    pub fn enforce_options(&self) -> EnforceOptions<'_> {
        EnforceOptions::new(self.jobs, self.cache.as_deref())
    }
}

/// The freshly imputed fine series of the latest interval.
#[derive(Debug, Clone, PartialEq)]
pub struct ImputedInterval {
    pub port: usize,
    /// `series[q][t]`: fine-grained lengths for the new interval only.
    pub series: Vec<Vec<u32>>,
    /// Wall-clock cost of producing it (model + CEM).
    pub latency: Duration,
    /// The ladder rung the newest interval's correction landed on.
    pub level: DegradationLevel,
    /// Whether C1–C3 hold exactly *as measured*. The ladder always
    /// returns a constraint-satisfying series; this is `false` only when
    /// the measurements themselves were contradictory and had to be
    /// minimally relaxed first ([`DegradationLevel::MeasurementRelaxed`]).
    pub enforced: bool,
}

/// One interval as a one-interval `(constraints, prediction)` window —
/// the unit `enforce_degraded_batch` takes and a serving tick ships.
pub type IntervalItem = (WindowConstraints, Vec<Vec<f32>>);

/// A fully ingested window: the sliding window's constraints plus the
/// raw model output for all of it. Produced by
/// [`StreamingImputer::try_prepare`] — the whole-window reference that
/// tests and the benchmark's replay compare the served path
/// ([`StreamingImputer::try_prepare_newest`]) against.
#[derive(Debug, Clone)]
pub struct PreparedWindow {
    pub port: usize,
    /// C1–C3 right-hand sides of the buffered window.
    pub constraints: WindowConstraints,
    /// Raw transformer output for the whole window, `[queues][len]`.
    pub imputed: Vec<Vec<f32>>,
    /// Fine bins per interval.
    pub interval_len: usize,
    /// Intervals in the window.
    pub window_intervals: usize,
}

impl PreparedWindow {
    /// The newest interval as a one-interval `(constraints, prediction)`
    /// window, cut out of the whole one: what
    /// [`StreamingImputer::try_prepare_newest`] must equal bit for bit.
    /// Its ladder outcome equals the newest slice of the whole window's
    /// (`tests/cem_determinism.rs`).
    pub fn newest_item(&self) -> IntervalItem {
        let l = self.interval_len;
        let k = self.window_intervals - 1;
        let c = &self.constraints;
        let constraints = WindowConstraints {
            interval_len: l,
            len: l,
            maxes: c.maxes.iter().map(|m| vec![m[k]]).collect(),
            samples: c.samples.iter().map(|s| vec![s[k]]).collect(),
            sent: vec![c.sent[k]],
        };
        let prediction = self
            .imputed
            .iter()
            .map(|q| q[k * l..(k + 1) * l].to_vec())
            .collect();
        (constraints, prediction)
    }

    /// Slice the *newest* interval out of a corrected full-window series.
    pub fn newest_interval(&self, corrected: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let l = self.interval_len;
        let from = (self.window_intervals - 1) * l;
        corrected
            .iter()
            .map(|q| q[from..from + l].to_vec())
            .collect()
    }

    /// The newest interval's rung from a ladder outcome's `levels`.
    pub fn newest_level(&self, levels: &[DegradationLevel]) -> DegradationLevel {
        levels.last().copied().unwrap_or(DegradationLevel::Full)
    }
}

/// Sliding-window online imputer for one port.
///
/// Generic over how the model is held (`&TransformerImputer` for
/// single-owner pipelines, `Arc<TransformerImputer>` for the serving
/// layer's many sessions sharing one checkpoint).
pub struct StreamingImputer<M: Borrow<TransformerImputer>> {
    model: M,
    opts: StreamOptions,
    /// Fine bins per interval.
    interval_len: usize,
    /// Intervals kept in the sliding window (the model's context).
    window_intervals: usize,
    num_queues: usize,
    port: usize,
    history: VecDeque<IntervalUpdate>,
    /// Running latency statistics.
    total_latency: Duration,
    updates_processed: u64,
    worst_latency: Duration,
}

impl<M: Borrow<TransformerImputer>> StreamingImputer<M> {
    /// Single-stream constructor: the given engine at default ladder
    /// settings, sequential, uncached.
    pub fn new(
        model: M,
        cem: CemEngine,
        port: usize,
        num_queues: usize,
        interval_len: usize,
        window_intervals: usize,
    ) -> StreamingImputer<M> {
        StreamingImputer::with_options(
            model,
            StreamOptions {
                ladder: LadderConfig {
                    engine: cem,
                    ..LadderConfig::default()
                },
                ..StreamOptions::default()
            },
            port,
            num_queues,
            interval_len,
            window_intervals,
        )
    }

    /// Full constructor: explicit ladder configuration, worker count, and
    /// (shareable) solution cache.
    pub fn with_options(
        model: M,
        opts: StreamOptions,
        port: usize,
        num_queues: usize,
        interval_len: usize,
        window_intervals: usize,
    ) -> StreamingImputer<M> {
        assert!(window_intervals >= 1 && interval_len >= 2 && num_queues >= 1);
        StreamingImputer {
            model,
            opts,
            interval_len,
            window_intervals,
            num_queues,
            port,
            history: VecDeque::with_capacity(window_intervals),
            total_latency: Duration::ZERO,
            updates_processed: 0,
            worst_latency: Duration::ZERO,
        }
    }

    /// Number of intervals currently buffered.
    pub fn buffered(&self) -> usize {
        self.history.len()
    }

    /// The port this imputer tracks.
    pub fn port(&self) -> usize {
        self.port
    }

    /// Mean per-update imputation latency so far.
    pub fn mean_latency(&self) -> Duration {
        if self.updates_processed == 0 {
            Duration::ZERO
        } else {
            self.total_latency / self.updates_processed as u32
        }
    }

    pub fn worst_latency(&self) -> Duration {
        self.worst_latency
    }

    /// Validate and buffer one interval; `Some(window)` once the context
    /// window is full.
    fn ingest(&mut self, update: IntervalUpdate) -> Result<Option<PortWindow>, IngestError> {
        if update.port != self.port {
            return Err(IngestError::PortMismatch {
                expected: self.port,
                got: update.port,
            });
        }
        if update.samples.len() != self.num_queues || update.maxes.len() != self.num_queues {
            return Err(IngestError::ShapeMismatch {
                expected_queues: self.num_queues,
                samples: update.samples.len(),
                maxes: update.maxes.len(),
            });
        }
        if self.history.len() == self.window_intervals {
            self.history.pop_front();
        }
        self.history.push_back(update);
        Ok((self.history.len() == self.window_intervals).then(|| self.as_window()))
    }

    /// Ingest one interval; once the context window is full, run the
    /// model forward pass over the **whole** window and return it with
    /// the window's constraints. Nothing in production calls this: it is
    /// the whole-window reference [`try_prepare_newest`] is tested
    /// against, and what the benchmark's layer replay times.
    ///
    /// [`try_prepare_newest`]: StreamingImputer::try_prepare_newest
    pub fn try_prepare(
        &mut self,
        update: IntervalUpdate,
    ) -> Result<Option<PreparedWindow>, IngestError> {
        let Some(w) = self.ingest(update)? else {
            return Ok(None);
        };
        let imputed = self.model.borrow().impute(&w);
        Ok(Some(PreparedWindow {
            port: self.port,
            constraints: WindowConstraints::from_window(&w),
            imputed,
            interval_len: self.interval_len,
            window_intervals: self.window_intervals,
        }))
    }

    /// Ingest one interval; once the context window is full, return the
    /// **newest interval** as a one-interval `(constraints, prediction)`
    /// window — what a tick enforces, because it is what a tick ships.
    /// The model reads the whole sliding window but its last block
    /// computes only the newest interval's rows: bit for bit
    /// [`try_prepare`]'s [`newest_item`](PreparedWindow::newest_item).
    /// This is the ingestion half of [`try_push`]; the serving layer
    /// calls it directly so enforcement can be micro-batched across
    /// sessions.
    ///
    /// [`try_prepare`]: StreamingImputer::try_prepare
    /// [`try_push`]: StreamingImputer::try_push
    pub fn try_prepare_newest(
        &mut self,
        update: IntervalUpdate,
    ) -> Result<Option<IntervalItem>, IngestError> {
        let Some(w) = self.ingest(update)? else {
            return Ok(None);
        };
        let l = self.interval_len;
        let k = self.window_intervals - 1;
        let constraints = WindowConstraints {
            interval_len: l,
            len: l,
            maxes: w.maxes.iter().map(|m| vec![m[k]]).collect(),
            samples: w.samples.iter().map(|s| vec![s[k]]).collect(),
            sent: vec![w.sent[k]],
        };
        Ok(Some((
            constraints,
            self.model.borrow().impute_from(&w, k * l),
        )))
    }

    /// Ingest one interval; once the context window is full, returns the
    /// imputed fine series of the *newest* interval, corrected through
    /// the degradation ladder with this imputer's [`StreamOptions`].
    pub fn try_push(
        &mut self,
        update: IntervalUpdate,
    ) -> Result<Option<ImputedInterval>, IngestError> {
        let start = Instant::now();
        let Some((constraints, prediction)) = self.try_prepare_newest(update)? else {
            return Ok(None);
        };
        let out = enforce_degraded_with(
            &constraints,
            &prediction,
            &self.opts.ladder,
            &self.opts.enforce_options(),
        );
        let level = out.levels[0];
        let latency = start.elapsed();
        self.total_latency += latency;
        self.worst_latency = self.worst_latency.max(latency);
        self.updates_processed += 1;
        Ok(Some(ImputedInterval {
            port: self.port,
            series: out.corrected,
            latency,
            level,
            enforced: level != DegradationLevel::MeasurementRelaxed,
        }))
    }

    /// Panicking convenience wrapper around [`try_push`] for trusted
    /// (non-wire) inputs.
    ///
    /// [`try_push`]: StreamingImputer::try_push
    pub fn push(&mut self, update: IntervalUpdate) -> Option<ImputedInterval> {
        match self.try_push(update) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// Materialize the buffered history as an offline-style window (the
    /// `truth` field is zeroed — it is unknown online).
    fn as_window(&self) -> PortWindow {
        let ki = self.history.len();
        let len = ki * self.interval_len;
        PortWindow {
            port: self.port,
            start_bin: 0,
            interval_len: self.interval_len,
            queue_ids: (0..self.num_queues).collect(),
            truth: vec![vec![0.0; len]; self.num_queues],
            samples: (0..self.num_queues)
                .map(|q| self.history.iter().map(|u| u.samples[q]).collect())
                .collect(),
            maxes: (0..self.num_queues)
                .map(|q| self.history.iter().map(|u| u.maxes[q]).collect())
                .collect(),
            sent: self.history.iter().map(|u| u.sent).collect(),
            dropped: self.history.iter().map(|u| u.dropped).collect(),
            received: self.history.iter().map(|u| u.received).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer_imputer::Scales;
    use fmml_netsim::traffic::TrafficConfig;
    use fmml_netsim::{SimConfig, Simulation};
    use fmml_telemetry::windows_from_trace;

    fn setup() -> (TransformerImputer, Vec<PortWindow>) {
        let cfg = SimConfig::small();
        let gt = Simulation::new(
            cfg.clone(),
            TrafficConfig::websearch_incast(cfg.num_ports, 0.6),
            19,
        )
        .run_ms(360);
        let ws: Vec<PortWindow> = windows_from_trace(&gt, 60, 10, 60)
            .into_iter()
            .filter(|w| w.has_activity())
            .collect();
        let scales = Scales {
            qlen: cfg.buffer_packets as f32,
            count: 830.0,
        };
        (TransformerImputer::new(3, scales), ws)
    }

    #[test]
    fn warms_up_then_emits_every_interval() {
        let (model, ws) = setup();
        let w = &ws[0];
        let mut s = StreamingImputer::new(&model, CemEngine::Fast, w.port, 2, 10, 6);
        let mut emitted = 0;
        for k in 0..w.intervals() {
            let out = s.push(IntervalUpdate::from_window(w, k));
            if k + 1 < 6 {
                assert!(out.is_none(), "emitted during warm-up at k={k}");
            } else {
                let out = out.expect("full window must emit");
                emitted += 1;
                assert_eq!(out.series.len(), 2);
                assert_eq!(out.series[0].len(), 10);
                assert!(out.enforced);
                assert_eq!(out.level, DegradationLevel::Full);
            }
        }
        assert_eq!(emitted, 1);
        assert_eq!(s.buffered(), 6);
        assert!(s.mean_latency() > Duration::ZERO);
        assert!(s.worst_latency() >= s.mean_latency());
    }

    #[test]
    fn emitted_interval_respects_its_own_measurements() {
        let (model, ws) = setup();
        let w = &ws[0];
        let mut s = StreamingImputer::new(&model, CemEngine::Fast, w.port, 2, 10, 6);
        let mut last = None;
        for k in 0..6 {
            last = s.push(IntervalUpdate::from_window(w, k));
        }
        let out = last.expect("emits after warm-up");
        // The newest interval is k=5: samples pinned, max attained.
        for q in 0..2 {
            assert_eq!(*out.series[q].last().unwrap(), w.samples[q][5]);
            assert_eq!(*out.series[q].iter().max().unwrap(), w.maxes[q][5]);
        }
    }

    #[test]
    fn sliding_window_keeps_fixed_depth() {
        let (model, ws) = setup();
        let w = &ws[0];
        let mut s = StreamingImputer::new(&model, CemEngine::Fast, w.port, 2, 10, 3);
        let mut emissions = 0;
        for _round in 0..3 {
            for k in 0..w.intervals() {
                if s.push(IntervalUpdate::from_window(w, k)).is_some() {
                    emissions += 1;
                }
                assert!(s.buffered() <= 3);
            }
        }
        // 18 updates, first 2 are warm-up.
        assert_eq!(emissions, 16);
    }

    #[test]
    #[should_panic(expected = "different port")]
    fn rejects_foreign_port_updates() {
        let (model, ws) = setup();
        let w = &ws[0];
        let mut s = StreamingImputer::new(&model, CemEngine::Fast, w.port, 2, 10, 3);
        let mut u = IntervalUpdate::from_window(w, 0);
        u.port = w.port + 1;
        s.push(u);
    }

    #[test]
    fn mismatched_shapes_are_errors_not_panics() {
        let (model, ws) = setup();
        let w = &ws[0];
        let mut s = StreamingImputer::new(&model, CemEngine::Fast, w.port, 2, 10, 3);
        // samples too short.
        let mut u = IntervalUpdate::from_window(w, 0);
        u.samples.pop();
        assert_eq!(
            s.try_push(u),
            Err(IngestError::ShapeMismatch {
                expected_queues: 2,
                samples: 1,
                maxes: 2
            })
        );
        // maxes too long (would have panicked on index before).
        let mut u = IntervalUpdate::from_window(w, 0);
        u.maxes.push(7);
        assert!(matches!(
            s.try_push(u),
            Err(IngestError::ShapeMismatch { maxes: 3, .. })
        ));
        // Rejected updates must not have entered the sliding window.
        assert_eq!(s.buffered(), 0);
        // A well-formed update still works afterwards.
        assert!(s
            .try_push(IntervalUpdate::from_window(w, 0))
            .unwrap()
            .is_none());
        assert_eq!(s.buffered(), 1);
    }

    #[test]
    fn contradictory_measurements_surface_as_relaxed_level() {
        let (model, ws) = setup();
        let w = &ws[0];
        let mut s = StreamingImputer::new(&model, CemEngine::Fast, w.port, 2, 10, 2);
        s.push(IntervalUpdate::from_window(w, 0));
        let mut u = IntervalUpdate::from_window(w, 1);
        // Sample above the LANZ max: infeasible as measured.
        u.samples[0] = u.maxes[0] + 5;
        let out = s.push(u).expect("window full");
        assert_eq!(out.level, DegradationLevel::MeasurementRelaxed);
        assert!(!out.enforced, "relaxed output is flagged");
    }

    #[test]
    fn push_matches_the_newest_slice_of_whole_window_enforcement() {
        // try_push runs the model's last block on, and enforces, the
        // newest interval alone. The anchor: that is bitwise the newest
        // slice of running and enforcing the whole sliding window, which
        // is what an offline pipeline (and the benchmark's replay)
        // computes from a `PreparedWindow`.
        let (model, ws) = setup();
        let w = &ws[0];
        let opts = StreamOptions::default();
        let new = || StreamingImputer::with_options(&model, opts.clone(), w.port, 2, 10, 4);
        let (mut a, mut b, mut c) = (new(), new(), new());
        let mut live = false;
        for k in 0..w.intervals() {
            let u = IntervalUpdate::from_window(w, k);
            let pushed = a.try_push(u.clone()).unwrap();
            let newest = c.try_prepare_newest(u.clone()).unwrap();
            let prepared = b.try_prepare(u).unwrap();
            assert_eq!(newest.is_some(), prepared.is_some(), "warm-up at k={k}");
            if let (Some((constraints, prediction)), Some(p)) = (newest, &prepared) {
                let (ref_constraints, ref_prediction) = p.newest_item();
                assert_eq!(constraints, ref_constraints);
                let bits = |s: &[Vec<f32>]| -> Vec<Vec<u32>> {
                    let row = |q: &Vec<f32>| q.iter().map(|v| v.to_bits()).collect();
                    s.iter().map(row).collect()
                };
                assert_eq!(bits(&prediction), bits(&ref_prediction));
                live |= prediction.iter().flatten().any(|&v| v != 0.0);
            }
            match (pushed, prepared) {
                (None, None) => {}
                (Some(out), Some(p)) => {
                    let whole = enforce_degraded_with(
                        &p.constraints,
                        &p.imputed,
                        &opts.ladder,
                        &opts.enforce_options(),
                    );
                    assert_eq!(out.series, p.newest_interval(&whole.corrected));
                    assert_eq!(out.level, p.newest_level(&whole.levels));
                }
                (x, y) => panic!("warm-up divergence at k={k}: {x:?} vs {y:?}"),
            }
        }
        assert!(live, "an all-zero prediction proves nothing bit for bit");
    }

    #[test]
    fn shared_cache_is_hit_across_imputers() {
        let (model, ws) = setup();
        let w = &ws[0];
        let cache = Arc::new(SolutionCache::new(1024));
        let opts = StreamOptions {
            cache: Some(Arc::clone(&cache)),
            ..StreamOptions::default()
        };
        for _tenant in 0..2 {
            let mut s = StreamingImputer::with_options(&model, opts.clone(), w.port, 2, 10, 3);
            for k in 0..w.intervals() {
                let _ = s.push(IntervalUpdate::from_window(w, k));
            }
        }
        let stats = cache.stats();
        assert!(
            stats.hits > 0,
            "second tenant must reuse the first's solves: {stats:?}"
        );
    }

    #[test]
    fn arc_held_model_works() {
        let (model, ws) = setup();
        let model = Arc::new(model);
        let w = &ws[0];
        let mut s = StreamingImputer::new(Arc::clone(&model), CemEngine::Fast, w.port, 2, 10, 2);
        s.push(IntervalUpdate::from_window(w, 0));
        assert!(s.push(IntervalUpdate::from_window(w, 1)).is_some());
    }
}
