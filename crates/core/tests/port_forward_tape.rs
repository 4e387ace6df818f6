//! The tape bookkeeping of one warm serve-wire port forward (2 queues,
//! two 5-step intervals, the newest interval's rows), read from the
//! process-global `nn.tape.*` counters — which is why this is the only
//! test in its binary: a neighbour's tape would land in the same delta.

use fmml_core::transformer_imputer::{Scales, TransformerImputer};
use fmml_netsim::traffic::TrafficConfig;
use fmml_netsim::{SimConfig, Simulation};
use fmml_nn::tape::{self, TapeStats};
use fmml_telemetry::windows_from_trace;

#[test]
fn a_warm_wire_port_forward_is_one_tape() {
    let cfg = SimConfig::small();
    let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.6);
    let gt = Simulation::new(cfg, traffic, 19).run_ms(200);
    let w = windows_from_trace(&gt, 10, 5, 10)
        .into_iter()
        .find(|w| w.has_activity())
        .expect("an active window");
    assert_eq!((w.len(), w.num_queues()), (10, 2), "serve-wire geometry");
    let model = TransformerImputer::new(
        3,
        Scales {
            qlen: 260.0,
            count: 830.0,
        },
    );
    // The first forward warms this thread's tape arena.
    let first = model.impute_from(&w, 5);
    let before = tape::stats();
    assert_eq!(model.impute_from(&w, 5), first);
    let d = tape::stats() - before;
    assert_eq!(
        d,
        TapeStats {
            tapes: 1,
            nodes: 70,
            buf_hits: 36,
            buf_misses: 0,
        }
    );
}
