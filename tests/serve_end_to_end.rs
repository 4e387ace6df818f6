//! End-to-end serving test: a loopback `fmml-serve` server under
//! concurrent chaos clients from the trace-replay load generator.
//!
//! Asserts the ISSUE-4 serving contract:
//!
//! * zero panics anywhere (client threads are joined; the server's
//!   worker/reader threads are joined on shutdown);
//! * zero constraint violations — every `Imputed` reply the server
//!   shipped passed its own `satisfied_exact` self-check;
//! * every accepted interval is answered (Imputed/Ack) or explicitly
//!   rejected (Busy/Reject); on clean sessions nothing is lost;
//! * graceful drain: `Bye` yields a `ByeAck` only after all in-flight
//!   replies were written, so clean clients never lose replies.

use fmml::core::transformer_imputer::{Scales, TransformerImputer};
use fmml::fault::ProcessFaultPlan;
use fmml::netsim::SimConfig;
use fmml::obs::trace;
use fmml::serve::protocol::Frame;
use fmml::serve::{spawn, ChaosConfig, LoadgenConfig, ServerConfig};
use std::collections::HashSet;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Bounded poll: wait (real time, capped) until `cond` holds. Replaces
/// fixed-length sleeps so assertions are deadline-robust on loaded CI
/// runners — the wait ends the moment the condition is observable, and
/// a condition that never holds fails via the caller's assertion rather
/// than hanging.
fn wait_until(cap: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + cap;
    while !cond() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Two things in this binary are process-wide: the tracing switch, and
/// the CPU. Tests that flip tracing must not overlap each other; tests
/// that flood the server (unpaced clients, injected panics and stalls)
/// must not overlap the one that asserts a latency bound. One gate
/// serialises all of them; only the paced shutdown test runs beside it.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn model() -> Arc<TransformerImputer> {
    let cfg = SimConfig::small();
    Arc::new(TransformerImputer::new(
        3,
        Scales {
            qlen: cfg.buffer_packets as f32,
            count: 830.0,
        },
    ))
}

fn loadgen_cfg(addr: String) -> LoadgenConfig {
    LoadgenConfig {
        addr,
        intervals: 48,
        interval_len: 10,
        window_intervals: 3,
        sim: SimConfig::small(),
        sim_ms: 480,
        distinct_traces: 2,
        seed: 11,
        // Generous budget: CI boxes are slow and this test asserts
        // *correctness* under chaos; the 50 ms wire-rate claim is the
        // benchmark's job (`benchmark/`).
        deadline: Duration::from_millis(500),
        ..LoadgenConfig::default()
    }
}

#[test]
fn chaos_clients_cannot_break_the_server() {
    let _gate = gate();
    // Wire chaos alone, then wire chaos on top of injected worker
    // panics, solver stalls and slow writes.
    let process_faults = ProcessFaultPlan {
        worker_panic_every: 8,
        solver_stall_every: 9,
        solver_stall_ms: 5,
        slow_write_every: 7,
        slow_write_ms: 2,
    };
    for faults in [ProcessFaultPlan::none(), process_faults] {
        let faulty = faults.is_active();
        let handle = spawn(
            model(),
            ServerConfig {
                workers: 2,
                max_batch: 8,
                deadline: Duration::from_millis(500),
                // ~1 in 8 batches panics; the default budget of 5
                // restarts per slot would run out mid-test.
                max_restarts: 64,
                process_faults: faults,
                ..ServerConfig::default()
            },
        )
        .expect("spawn server");
        let addr = handle.addr().to_string();

        // 4 concurrent chaos clients: disconnects, corrupted frames,
        // malformed updates, reordering — all at elevated rates.
        let report = fmml::serve::run_loadgen(&LoadgenConfig {
            clients: 4,
            chaos: Some(ChaosConfig {
                disconnect_prob: 0.03,
                corrupt_frame_prob: 0.03,
                corrupt_data_prob: 0.10,
                reorder_prob: 0.10,
            }),
            ..loadgen_cfg(addr)
        });

        // Accounting: every sent interval is answered, explicitly
        // rejected, or attributably lost to a chaos disconnect.
        assert_eq!(
            report.sent,
            report.answered
                + report.acked
                + report.rejected
                + report.malformed_rejects
                + report.lost,
            "unaccounted intervals: {report:?}"
        );
        assert_eq!(report.unknown_levels, 0, "levels must decode: {report:?}");
        assert_eq!(report.drain_losses, 0, "drain lost replies: {report:?}");
        assert!(report.answered > 0, "chaos run produced no imputations");
        let (panics, restarts) = handle.worker_stats();
        if faulty {
            // Resumption replays whatever a crash or hang-up cut off:
            // nothing is lost, nobody gives up.
            assert_eq!(report.lost, 0, "lost replies: {report:?}");
            assert_eq!(report.unsent, 0, "gave up sending: {report:?}");
            assert_eq!(report.client_failures, 0, "client panicked: {report:?}");
            assert!(panics > 0 && restarts > 0, "{panics}/{restarts}");
            // All three cadences actually fired (this is the only test
            // in the binary that injects process faults).
            let counters = fmml::obs::snapshot().counters;
            for kind in ["worker_panic", "solver_stall", "slow_write"] {
                let name = format!("fault.injected.{kind}");
                let n = counters.iter().find(|(k, _)| *k == name).map_or(0, |c| c.1);
                assert!(n > 0, "{name} never fired");
            }
        } else {
            assert_eq!(panics, 0);
        }

        // The server survived and self-checked every reply.
        let stats = handle.shutdown();
        let Frame::StatsReply {
            violations,
            malformed,
            replies,
            active_sessions,
            ..
        } = stats
        else {
            panic!("stats frame");
        };
        assert_eq!(violations, 0, "constraint violations shipped");
        assert_eq!(active_sessions, 0, "sessions leaked");
        assert!(replies >= report.answered);
        assert!(malformed > 0, "chaos should have tripped the hardening");
    }
}

#[test]
fn clean_clients_lose_nothing_and_drain_gracefully() {
    let _gate = gate();
    let handle = spawn(
        model(),
        ServerConfig {
            workers: 2,
            deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    let addr = handle.addr().to_string();

    let report = fmml::serve::run_loadgen(&LoadgenConfig {
        clients: 3,
        chaos: None,
        // Pace at the wire rate (one interval per interval_len ms) so
        // this measures serving latency, not client-side flooding.
        pace: Some(Duration::from_millis(10)),
        ..loadgen_cfg(addr)
    });

    assert_eq!(report.lost, 0, "clean run lost replies: {report:?}");
    assert_eq!(report.drain_losses, 0);
    assert_eq!(report.reconnects, 0);
    assert_eq!(report.malformed_rejects, 0);
    assert_eq!(
        report.sent,
        report.answered + report.acked + report.rejected,
        "unaccounted intervals: {report:?}"
    );
    // Within the generous test budget, nothing should miss.
    assert_eq!(report.deadline_miss, 0, "misses under 500 ms: {report:?}");

    let stats = handle.shutdown();
    let Frame::StatsReply {
        violations,
        malformed,
        slow_disconnects,
        ..
    } = stats
    else {
        panic!("stats frame");
    };
    assert_eq!(violations, 0);
    assert_eq!(malformed, 0);
    assert_eq!(slow_disconnects, 0);
}

/// The ISSUE-6 trace-completeness contract: with tracing on, every
/// answered interval — even under the chaos preset — yields one
/// reconstructable trace covering the full decode → queue → batch →
/// enforce → encode → write journey, with no orphan spans and no ring
/// evictions.
#[test]
fn traces_cover_the_full_pipeline_under_chaos() {
    let _gate = gate();
    trace::set_enabled(true);
    let dropped0 = trace::snapshot().dropped;

    let handle = spawn(
        model(),
        ServerConfig {
            workers: 2,
            max_batch: 8,
            // jobs > 1 so interval-level CEM work crosses into rayon
            // scope threads and exercises explicit context propagation.
            jobs: 2,
            deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    let addr = handle.addr().to_string();

    let report = fmml::serve::run_loadgen(&LoadgenConfig {
        clients: 4,
        chaos: Some(ChaosConfig::standard()),
        ..loadgen_cfg(addr)
    });
    assert!(report.answered > 0, "chaos run produced no imputations");
    handle.shutdown();

    let snap = trace::snapshot();
    trace::set_enabled(false);
    assert_eq!(
        snap.dropped, dropped0,
        "trace rings evicted records mid-test"
    );

    // Client-observed traces (those carrying a `client.e2e` span) are
    // exactly the answered intervals; each must cover every stage.
    let mut complete = 0usize;
    for id in snap.trace_ids() {
        let spans = snap.trace(id);
        let names: HashSet<&str> = spans.iter().map(|s| s.name).collect();
        if !names.contains("client.e2e") {
            continue;
        }
        for need in [
            "serve.interval",
            "serve.decode",
            "serve.forward",
            "serve.queue",
            "serve.batch",
            "serve.encode",
            "serve.write",
        ] {
            assert!(names.contains(need), "trace {id} missing {need}: {names:?}");
        }
        assert!(
            names.iter().any(|n| n.starts_with("serve.enforce[")),
            "trace {id} has no enforce-rung span: {names:?}"
        );
        // No orphans: every parent is a root marker (0) or a span
        // present in the same trace.
        let ids: HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
        for s in &spans {
            assert!(
                s.parent_id == 0 || ids.contains(&s.parent_id),
                "orphan span in trace {id}: {s:?}"
            );
        }
        complete += 1;
    }
    assert!(
        complete >= report.answered as usize,
        "only {complete} complete traces for {} answered replies",
        report.answered
    );
}

/// The SLO watchdog: an impossible deadline makes every reply a miss,
/// so the sliding window must cross the miss-rate threshold and declare
/// a breach carrying trace ids that resolve in the journal snapshot.
#[test]
fn slo_watchdog_declares_breaches_with_trace_ids() {
    let _gate = gate();
    trace::set_enabled(true);

    let handle = spawn(
        model(),
        ServerConfig {
            workers: 2,
            // Every reply misses a 1 µs deadline.
            deadline: Duration::from_micros(1),
            slo_window: Duration::from_secs(10),
            slo_tick: Duration::from_millis(20),
            slo_min_samples: 5,
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    let addr = handle.addr().to_string();

    let report = fmml::serve::run_loadgen(&LoadgenConfig {
        clients: 3,
        chaos: None,
        ..loadgen_cfg(addr)
    });
    assert!(report.answered > 0, "no replies to miss the deadline");
    // Wait for the watchdog to observe the window (it ticks every
    // `slo_tick`) and declare the breach.
    wait_until(Duration::from_secs(10), || {
        handle
            .slo_breaches()
            .iter()
            .any(|b| b.kind == "deadline_miss_rate")
    });
    let breaches = handle.slo_breaches();
    handle.shutdown();

    let snap = trace::snapshot();
    trace::set_enabled(false);

    let miss = breaches
        .iter()
        .find(|b| b.kind == "deadline_miss_rate")
        .unwrap_or_else(|| panic!("no deadline breach declared: {breaches:?}"));
    assert!(
        miss.rate > miss.threshold,
        "breach below threshold: {miss:?}"
    );
    assert!(
        !miss.trace_ids.is_empty(),
        "breach carries no trace ids: {miss:?}"
    );
    // Every cited trace id reconstructs from the journal snapshot and
    // names the serving root, so an operator can walk the breach back
    // to the requests that caused it.
    for &tid in &miss.trace_ids {
        let spans = snap.trace(tid);
        assert!(
            spans.iter().any(|s| s.name == "serve.interval"),
            "breach trace {tid} not reconstructable: {spans:?}"
        );
    }
}

/// Shutdown with live, mid-stream sessions still drains in-flight work
/// and tells the clients.
#[test]
fn shutdown_during_traffic_drains() {
    let handle = spawn(
        model(),
        ServerConfig {
            workers: 1,
            deadline: Duration::from_millis(500),
            ..ServerConfig::default()
        },
    )
    .expect("spawn server");
    let addr = handle.addr().to_string();

    // A slow-paced client that will still be mid-replay at shutdown.
    let pacer = std::thread::spawn(move || {
        fmml::serve::run_loadgen(&LoadgenConfig {
            clients: 2,
            intervals: 200,
            pace: Some(Duration::from_millis(5)),
            chaos: None,
            ..loadgen_cfg(addr)
        })
    });
    // Shut down once both clients are connected and streaming (paced at
    // 5 ms × 200 intervals, they stay mid-replay for ~1 s — the poll
    // lands well inside that window even on a loaded runner).
    wait_until(Duration::from_secs(10), || {
        let Frame::StatsReply {
            active_sessions,
            accepted,
            ..
        } = handle.stats()
        else {
            return false;
        };
        active_sessions == 2 && accepted > 0
    });
    let stats = handle.shutdown(); // must not hang, must join all threads
    let Frame::StatsReply {
        violations,
        active_sessions,
        ..
    } = stats
    else {
        panic!("stats frame");
    };
    assert_eq!(violations, 0);
    assert_eq!(active_sessions, 0, "shutdown left sessions active");
    let report = pacer.join().expect("loadgen panicked");
    // The interrupted clients saw a server-initiated goodbye, not silence:
    // whatever was accepted before shutdown was answered or is accounted
    // as lost-to-shutdown, and nothing panicked.
    assert_eq!(
        report.sent,
        report.answered + report.acked + report.rejected + report.malformed_rejects + report.lost,
        "unaccounted intervals: {report:?}"
    );
}
