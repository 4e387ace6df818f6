//! The exact work of one paper-geometry port forward — whole, and as
//! served (the last block on the newest interval's rows) — read from the
//! process-global obs counters — which is why this is the only test in
//! its binary: a neighbour's forward would land in the same delta.

use fmml_core::imputer::Imputer;
use fmml_core::transformer_imputer::{Scales, TransformerImputer};
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{SimConfig, Simulation};
use fmml_telemetry::windows_from_trace;

/// A counter registers on first touch: absent means 0.
fn counter(name: &str) -> u64 {
    let counters = fmml_obs::snapshot().counters;
    let found = counters.iter().find(|(n, _)| n == name);
    found.map_or(0, |&(_, v)| v)
}

#[test]
fn paper_port_forward_is_720k_softmax_elems_and_14m_fmas() {
    let cfg = SimConfig::small();
    let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.6);
    let gt = Simulation::new(cfg, traffic, 13).run_ms(300);
    let w = &windows_from_trace(&gt, 300, 50, 300)[0];
    assert_eq!((w.len(), w.num_queues()), (300, 2), "paper geometry");
    let model = TransformerImputer::new(
        1,
        Scales {
            qlen: 260.0,
            count: 4150.0,
        },
    );
    let before = [counter("nn.softmax.elems"), counter("nn.matmul.fmas")];
    let series = model.impute(w);
    assert_eq!(series.len(), 2);
    // 2 queues × 2 layers × 2 heads × 300².
    assert_eq!(counter("nn.softmax.elems") - before[0], 720_000);
    assert_eq!(counter("nn.matmul.fmas") - before[1], 14_064_000);

    // What a serving tick runs: the last of the six intervals' rows.
    let before = [counter("nn.softmax.elems"), counter("nn.matmul.fmas")];
    let newest = model.impute_from(w, 250);
    assert_eq!(newest, [&series[0][250..], &series[1][250..]]);
    // 2 queues × 2 heads × (300² + 50 · 300).
    assert_eq!(counter("nn.softmax.elems") - before[0], 420_000);
    // Per queue: 38,400 input projection + 3,494,400 whole block +
    // 710,400 tail block + 800 head.
    assert_eq!(counter("nn.matmul.fmas") - before[1], 8_488_000);
}
