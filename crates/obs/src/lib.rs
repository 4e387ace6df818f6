//! # fmml-obs — workspace-wide observability
//!
//! Zero-dependency metrics and structured run telemetry for the
//! sim → train → CEM pipeline. Three pieces:
//!
//! * **Metrics registry** (`registry`): process-global, thread-safe.
//!   [`Counter`]s and [`Gauge`]s are single relaxed atomics on the hot
//!   path; [`Histogram`]s use fixed log-scaled buckets good for
//!   p50/p90/p99/max at ≤ 6% relative error. Metrics are declared as
//!   `static` items keyed by `&'static str` and self-register on first
//!   touch — no init call, no lock on the hot path.
//! * **Span timing** ([`SpanTimer`]): RAII guard that records wall-clock
//!   time into a histogram on drop.
//! * **Run log** ([`runlog`]): structured JSONL event sink, off by
//!   default. `FMML_LOG=1` enables it on stderr, `FMML_LOG_FILE=path`
//!   redirects to a file. When disabled, [`log_event!`] evaluates
//!   *nothing* — one relaxed atomic load guards the whole call.
//!
//! [`snapshot()`] freezes every registered metric into a
//! [`MetricsReport`] that renders as a deterministic (name-sorted) JSON
//! object or a human-readable table.
//!
//! ## Conventions
//!
//! Metric names are dot-separated `crate.metric[_unit]` paths, e.g.
//! `netsim.pkts_dropped.buffer`, `train.epoch_ms`, `smt.conflicts`.
//! Time histograms carry their display unit ([`Unit`]) at declaration;
//! samples are recorded in nanoseconds and scaled at snapshot time, so
//! sub-unit durations keep full resolution.
//!
//! ```
//! use fmml_obs::{Counter, Histogram, Unit};
//!
//! static PKTS: Counter = Counter::new("doc.pkts");
//! static STEP_MS: Histogram = Histogram::new("doc.step_ms", Unit::Millis);
//!
//! PKTS.add(3);
//! {
//!     let _t = STEP_MS.start_span(); // records on drop
//! }
//! let report = fmml_obs::snapshot();
//! assert!(report.to_json().contains("\"doc.pkts\":3"));
//! ```

mod clock;
pub mod fnv;
mod hist;
pub(crate) mod json;
mod registry;
mod report;
pub mod runlog;
pub mod trace;

pub use clock::{Clock, VirtualClock};
pub use hist::{Histogram, SpanTimer, Unit};
pub use registry::{Counter, FloatGauge, Gauge};
pub use report::{snapshot, HistogramSummary, MetricsReport};
pub use runlog::RunLog;
pub use trace::{Span, TraceContext, TraceSnapshot};

/// One-shot introspection dump: the full metrics registry plus recent
/// trace summaries and a folded-stacks export, as a single JSON object
/// (`{"metrics": ..., "trace": ...}`). This is what a `MetricsDump`
/// request over the serve protocol returns.
pub fn dump_json() -> String {
    let tr = trace::snapshot();
    let mut out = String::from("{\"metrics\":");
    out.push_str(&snapshot().to_json());
    out.push_str(",\"trace\":{\"enabled\":");
    out.push_str(if trace::enabled() { "true" } else { "false" });
    out.push_str(&format!(
        ",\"spans\":{},\"dropped\":{},\"summaries\":[",
        tr.spans.len(),
        tr.dropped
    ));
    for (i, s) in tr.summaries(32).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{{\"trace_id\":{},\"root\":", s.trace_id));
        json::push_json_str(&mut out, s.root);
        out.push_str(&format!(
            ",\"spans\":{},\"start_ns\":{},\"total_ns\":{},\"names\":[",
            s.spans, s.start_ns, s.total_ns
        ));
        for (k, n) in s.names.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            json::push_json_str(&mut out, n);
        }
        out.push_str("]}");
    }
    out.push_str("],\"folded\":");
    json::push_json_str(&mut out, &tr.folded_stacks());
    out.push_str("}}");
    out
}
