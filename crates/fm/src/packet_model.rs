//! The full packet-level switch model of §2.3.
//!
//! Time is divided into discrete steps, "where a time step is the time
//! taken to transmit or receive a packet". Per step the model has:
//!
//! * **operational constraints** — every arriving packet maps to an output
//!   queue; unbounded backlog `pkts∞_{q,t} = len_{q,t−1} + arrivals`;
//!   a dynamically computed threshold `thr_{q,t} = max(0, B − occupied)`
//!   (Dynamic Threshold, α = 1) drops the excess; a work-conserving
//!   (optionally strict-priority) scheduler dequeues at most one packet
//!   per port per step;
//! * **measurement constraints** — per monitoring interval, SNMP counts
//!   (received / sent / dropped) must match, the LANZ maximum must be
//!   attained, and periodic samples must be met exactly.
//!
//! Solving the model "imputes" a plausible fine-grained queue-length
//! series — and, as the paper reports, stops scaling very quickly: the
//! search space grows with (ports × queues × steps), which
//! `examples/fm_scalability.rs` regenerates. The model is built on
//! [`fmml_smt`] and returns [`PacketModelOutcome::Unknown`] when the
//! budget is exhausted rather than hanging.

use fmml_smt::solver::{Budget, SatResult};
use fmml_smt::{Solver, TermId};
use std::time::{Duration, Instant};

/// Switch shape and horizon for the packet-level model.
#[derive(Debug, Clone)]
pub struct PacketModelConfig {
    pub num_ports: usize,
    pub queues_per_port: usize,
    /// Shared buffer in packets.
    pub buffer: u32,
    /// Total packet time steps modeled.
    pub time_steps: usize,
    /// Steps per monitoring interval (must divide `time_steps`).
    pub interval_len: usize,
    /// Strict-priority scheduling (class 0 first) vs any work-conserving
    /// schedule.
    pub strict_priority: bool,
}

impl PacketModelConfig {
    pub fn tiny() -> PacketModelConfig {
        PacketModelConfig {
            num_ports: 2,
            queues_per_port: 2,
            buffer: 8,
            time_steps: 8,
            interval_len: 4,
            strict_priority: true,
        }
    }

    pub fn num_queues(&self) -> usize {
        self.num_ports * self.queues_per_port
    }

    pub fn intervals(&self) -> usize {
        self.time_steps / self.interval_len
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.num_ports == 0 || self.queues_per_port == 0 {
            return Err("ports/queues must be positive".into());
        }
        if self.interval_len == 0 || !self.time_steps.is_multiple_of(self.interval_len) {
            return Err("interval_len must divide time_steps".into());
        }
        Ok(())
    }
}

/// Coarse measurements the model must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketMeasurements {
    /// `received[i][k]`: packets received at input port `i` in interval `k`.
    pub received: Vec<Vec<u32>>,
    /// `sent[p][k]`: packets sent by output port `p`.
    pub sent: Vec<Vec<u32>>,
    /// `dropped[p][k]`: packets dropped at output port `p`'s queues.
    pub dropped: Vec<Vec<u32>>,
    /// `q_max[q][k]`: LANZ max per queue.
    pub q_max: Vec<Vec<u32>>,
    /// `q_sample[q][k]`: instantaneous length at the interval's last step.
    pub q_sample: Vec<Vec<u32>>,
}

/// One scripted packet arrival (for the reference executor).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub step: usize,
    pub input_port: usize,
    /// Switch-global destination queue.
    pub queue: usize,
}

/// A deterministic execution: ground-truth series plus its measurements.
#[derive(Debug, Clone)]
pub struct ExecutionTrace {
    /// `len[q][t]` after step `t`.
    pub len: Vec<Vec<u32>>,
    pub measurements: PacketMeasurements,
}

/// Execute a scripted arrival schedule under the model's exact semantics
/// (strict-priority scheduling), producing consistent measurements.
#[allow(clippy::needless_range_loop)]
pub fn reference_execution(cfg: &PacketModelConfig, arrivals: &[Arrival]) -> ExecutionTrace {
    cfg.validate().expect("valid config");
    let nq = cfg.num_queues();
    let t_max = cfg.time_steps;
    let mut len = vec![vec![0u32; t_max]; nq];
    let mut prev = vec![0u32; nq];
    let k_of = |t: usize| t / cfg.interval_len;

    let mut received = vec![vec![0u32; cfg.intervals()]; cfg.num_ports];
    let mut sent = vec![vec![0u32; cfg.intervals()]; cfg.num_ports];
    let mut dropped = vec![vec![0u32; cfg.intervals()]; cfg.num_ports];
    let mut q_max = vec![vec![0u32; cfg.intervals()]; nq];
    let mut q_sample = vec![vec![0u32; cfg.intervals()]; nq];

    for t in 0..t_max {
        let k = k_of(t);
        // Arrivals of this step.
        let mut add = vec![0u32; nq];
        for a in arrivals.iter().filter(|a| a.step == t) {
            assert!(a.input_port < cfg.num_ports && a.queue < nq);
            received[a.input_port][k] += 1;
            add[a.queue] += 1;
        }
        // Admission under DT (threshold from the previous step's state).
        let occupied: u32 = prev.iter().sum();
        let thr = cfg.buffer.saturating_sub(occupied);
        let mut pkts = vec![0u32; nq];
        for q in 0..nq {
            let inf = prev[q] + add[q];
            // A queue keeps what it already holds; new arrivals are cut at
            // the threshold: pkts = clamp(inf, prev, max(thr, prev)).
            let cap = thr.max(prev[q]);
            let admitted = inf.min(cap);
            pkts[q] = admitted;
            let d = inf - admitted;
            dropped[q / cfg.queues_per_port][k] += d;
        }
        // Scheduling: strict priority within each port.
        for p in 0..cfg.num_ports {
            let base = p * cfg.queues_per_port;
            for c in 0..cfg.queues_per_port {
                let q = base + c;
                if pkts[q] > 0 {
                    pkts[q] -= 1;
                    sent[p][k] += 1;
                    break;
                }
            }
        }
        for q in 0..nq {
            len[q][t] = pkts[q];
            q_max[q][k] = q_max[q][k].max(pkts[q]);
            if (t + 1) % cfg.interval_len == 0 {
                q_sample[q][k] = pkts[q];
            }
            prev[q] = pkts[q];
        }
    }
    ExecutionTrace {
        len,
        measurements: PacketMeasurements {
            received,
            sent,
            dropped,
            q_max,
            q_sample,
        },
    }
}

/// Result of solving the packet-level model.
///
/// Every outcome carries the [`fmml_smt::SolverStats`] of the solve, so a
/// budget wall ([`PacketModelOutcome::Unknown`]) is diagnosable: was it
/// boolean conflicts, theory conflicts, or simplex pivots that ate the
/// budget?
#[derive(Debug, Clone, PartialEq)]
pub enum PacketModelOutcome {
    /// A plausible fine-grained series (`len[q][t]`) with solve time.
    Sat {
        len: Vec<Vec<i64>>,
        elapsed: Duration,
        stats: fmml_smt::SolverStats,
    },
    Unsat {
        elapsed: Duration,
        stats: fmml_smt::SolverStats,
    },
    /// Budget exhausted — the §2.3 scalability wall.
    Unknown {
        elapsed: Duration,
        stats: fmml_smt::SolverStats,
    },
}

impl PacketModelOutcome {
    /// The solver-work counters of this solve, whatever the outcome.
    pub fn stats(&self) -> &fmml_smt::SolverStats {
        match self {
            PacketModelOutcome::Sat { stats, .. }
            | PacketModelOutcome::Unsat { stats, .. }
            | PacketModelOutcome::Unknown { stats, .. } => stats,
        }
    }
}

/// Build and solve the §2.3 model for the given measurements.
pub fn solve(
    cfg: &PacketModelConfig,
    meas: &PacketMeasurements,
    budget: Budget,
) -> PacketModelOutcome {
    cfg.validate().expect("valid config");
    let start = Instant::now();
    let mut s = Solver::new();
    s.set_budget(budget);
    let vars = build_model(&mut s, cfg, meas);
    let result = s.check();
    let stats = s.stats();
    crate::cem::smt_engine::record_solver_stats(&stats);
    match result {
        SatResult::Sat => {
            let len = vars
                .len
                .iter()
                .map(|qrow| qrow.iter().map(|&t| s.model_int(t)).collect())
                .collect();
            PacketModelOutcome::Sat {
                len,
                elapsed: start.elapsed(),
                stats,
            }
        }
        SatResult::Unsat => PacketModelOutcome::Unsat {
            elapsed: start.elapsed(),
            stats,
        },
        SatResult::Unknown => PacketModelOutcome::Unknown {
            elapsed: start.elapsed(),
            stats,
        },
    }
}

struct ModelVars {
    /// `len[q][t]` terms.
    len: Vec<Vec<TermId>>,
}

#[allow(clippy::needless_range_loop)]
fn build_model(s: &mut Solver, cfg: &PacketModelConfig, meas: &PacketMeasurements) -> ModelVars {
    let nq = cfg.num_queues();
    let np = cfg.num_ports;
    let t_max = cfg.time_steps;
    let zero = s.int(0);
    let one = s.int(1);
    let buffer = s.int(cfg.buffer as i64);

    let recv: Vec<Vec<TermId>> = (0..np)
        .map(|i| {
            (0..t_max)
                .map(|t| s.bool_var(&format!("recv_{i}_{t}")))
                .collect()
        })
        .collect();
    let dst: Vec<Vec<Vec<TermId>>> = (0..np)
        .map(|i| {
            (0..nq)
                .map(|q| {
                    (0..t_max)
                        .map(|t| s.bool_var(&format!("dst_{i}_{q}_{t}")))
                        .collect()
                })
                .collect()
        })
        .collect();
    let deq: Vec<Vec<TermId>> = (0..nq)
        .map(|q| {
            (0..t_max)
                .map(|t| s.bool_var(&format!("deq_{q}_{t}")))
                .collect()
        })
        .collect();
    let len: Vec<Vec<TermId>> = (0..nq)
        .map(|q| {
            (0..t_max)
                .map(|t| s.int_var(&format!("len_{q}_{t}")))
                .collect()
        })
        .collect();
    // Per-step drop terms (derived), indexed [q][t].
    let mut drops: Vec<Vec<TermId>> = vec![Vec::with_capacity(t_max); nq];

    for t in 0..t_max {
        // Each received packet maps to exactly one queue; none otherwise.
        for i in 0..np {
            let indicators: Vec<TermId> = (0..nq).map(|q| s.ite(dst[i][q][t], one, zero)).collect();
            let total = s.add(&indicators);
            let r = s.ite(recv[i][t], one, zero);
            let c = s.eq(total, r);
            s.assert(c);
        }
        // Previous lengths (0 at t = 0).
        let prev: Vec<TermId> = (0..nq)
            .map(|q| if t == 0 { zero } else { len[q][t - 1] })
            .collect();
        let occupied = s.add(&prev);
        // thr = max(0, B - occupied), shared by all queues (DT α = 1).
        let slack = s.sub(buffer, occupied);
        let nonneg = s.ge(slack, zero);
        let thr = s.ite(nonneg, slack, zero);

        for q in 0..nq {
            // Arrivals to q.
            let arr_ind: Vec<TermId> = (0..np).map(|i| s.ite(dst[i][q][t], one, zero)).collect();
            let arrivals = s.add(&arr_ind);
            let inf = s.add(&[prev[q], arrivals]);
            // pkts = clamp(inf, prev, max(thr, prev)): the queue keeps its
            // backlog; new arrivals admit up to the threshold.
            let cap = {
                let ge_prev = s.ge(thr, prev[q]);
                s.ite(ge_prev, thr, prev[q])
            };
            let below = s.le(inf, cap);
            let pkts = s.ite(below, inf, cap);
            let d = s.sub(inf, pkts);
            drops[q].push(d);
            // Dequeue decrements; deq requires a packet present.
            let dq = s.ite(deq[q][t], one, zero);
            let after = s.sub(pkts, dq);
            let def = s.eq(len[q][t], after);
            s.assert(def);
            let has_pkt = s.ge(pkts, one);
            let can_deq = s.implies(deq[q][t], has_pkt);
            s.assert(can_deq);
        }

        // Per-port scheduling.
        for p in 0..np {
            let base = p * cfg.queues_per_port;
            let qs: Vec<usize> = (base..base + cfg.queues_per_port).collect();
            let deq_ind: Vec<TermId> = qs.iter().map(|&q| s.ite(deq[q][t], one, zero)).collect();
            let deq_total = s.add(&deq_ind);
            let at_most_one = s.le(deq_total, one);
            s.assert(at_most_one);
            // Work conservation: any backlog (pkts = len + deq ≥ 1 for
            // some queue) forces one dequeue.
            let have: Vec<TermId> = qs
                .iter()
                .map(|&q| {
                    let dq = s.ite(deq[q][t], one, zero);
                    let pkts = s.add(&[len[q][t], dq]);
                    s.ge(pkts, one)
                })
                .collect();
            let any = s.or(&have);
            let served = s.ge(deq_total, one);
            let wc = s.implies(any, served);
            s.assert(wc);
            // Strict priority: serving a lower class requires every higher
            // class empty.
            if cfg.strict_priority {
                for ci in 1..cfg.queues_per_port {
                    let q_low = base + ci;
                    for cj in 0..ci {
                        let q_high = base + cj;
                        let dq_high = s.ite(deq[q_high][t], one, zero);
                        let pkts_high = s.add(&[len[q_high][t], dq_high]);
                        let empty_high = s.le(pkts_high, zero);
                        let pri = s.implies(deq[q_low][t], empty_high);
                        s.assert(pri);
                    }
                }
            }
        }
    }

    // Non-negative lengths.
    for qrow in &len {
        for &lt in qrow {
            let nn = s.ge(lt, zero);
            s.assert(nn);
        }
    }

    // ---- measurement constraints ----
    let l = cfg.interval_len;
    for k in 0..cfg.intervals() {
        let steps: Vec<usize> = (k * l..(k + 1) * l).collect();
        // SNMP received per input port.
        for i in 0..np {
            let ind: Vec<TermId> = steps
                .iter()
                .map(|&t| s.ite(recv[i][t], one, zero))
                .collect();
            let total = s.add(&ind);
            let want = s.int(meas.received[i][k] as i64);
            let c = s.eq(total, want);
            s.assert(c);
        }
        for p in 0..np {
            let base = p * cfg.queues_per_port;
            // Sent.
            let ind: Vec<TermId> = steps
                .iter()
                .flat_map(|&t| {
                    (base..base + cfg.queues_per_port)
                        .map(|q| s.ite(deq[q][t], one, zero))
                        .collect::<Vec<_>>()
                })
                .collect();
            let total = s.add(&ind);
            let want = s.int(meas.sent[p][k] as i64);
            let c = s.eq(total, want);
            s.assert(c);
            // Dropped.
            let dterms: Vec<TermId> = steps
                .iter()
                .flat_map(|&t| {
                    (base..base + cfg.queues_per_port)
                        .map(|q| drops[q][t])
                        .collect::<Vec<_>>()
                })
                .collect();
            let dtotal = s.add(&dterms);
            let dwant = s.int(meas.dropped[p][k] as i64);
            let dc = s.eq(dtotal, dwant);
            s.assert(dc);
        }
        // LANZ max + periodic sample per queue.
        for q in 0..nq {
            let m = s.int(meas.q_max[q][k] as i64);
            for &t in &steps {
                let ub = s.le(len[q][t], m);
                s.assert(ub);
            }
            if meas.q_max[q][k] > 0 {
                let wit: Vec<TermId> = steps.iter().map(|&t| s.ge(len[q][t], m)).collect();
                let any = s.or(&wit);
                s.assert(any);
            }
            let sample = s.int(meas.q_sample[q][k] as i64);
            let pin = s.eq(len[q][steps[l - 1]], sample);
            s.assert(pin);
        }
    }

    ModelVars { len }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> Budget {
        Budget {
            timeout: Some(Duration::from_secs(30)),
            max_sat_conflicts: Some(2_000_000),
            max_bb_nodes: 200_000,
        }
    }

    /// Check a solved series against the queue-level measurement
    /// constraints (the solver may find a different — but plausible —
    /// execution, so counters are not re-derivable here).
    #[allow(clippy::needless_range_loop)]
    fn check_measurements(cfg: &PacketModelConfig, meas: &PacketMeasurements, len: &[Vec<i64>]) {
        let l = cfg.interval_len;
        for k in 0..cfg.intervals() {
            for q in 0..cfg.num_queues() {
                let seg = &len[q][k * l..(k + 1) * l];
                let max = *seg.iter().max().unwrap();
                assert_eq!(max, meas.q_max[q][k] as i64, "q{q} k{k} max");
                assert_eq!(seg[l - 1], meas.q_sample[q][k] as i64, "q{q} k{k} sample");
                assert!(seg.iter().all(|&v| v >= 0));
            }
        }
    }

    #[test]
    fn reference_execution_builds_and_drains_a_queue() {
        let cfg = PacketModelConfig::tiny();
        let arrivals = vec![
            Arrival {
                step: 0,
                input_port: 0,
                queue: 0,
            },
            Arrival {
                step: 0,
                input_port: 1,
                queue: 0,
            },
            Arrival {
                step: 1,
                input_port: 0,
                queue: 0,
            },
        ];
        let tr = reference_execution(&cfg, &arrivals);
        // Step 0: 2 arrive, 1 sent -> len 1. Step 1: +1, -1 -> len 1.
        // Step 2: -1 -> 0.
        assert_eq!(tr.len[0][0], 1);
        assert_eq!(tr.len[0][1], 1);
        assert_eq!(tr.len[0][2], 0);
        assert_eq!(tr.measurements.received[0][0], 2);
        assert_eq!(tr.measurements.sent[0][0], 3);
        assert_eq!(tr.measurements.q_max[0][0], 1);
    }

    #[test]
    fn reference_execution_drops_when_buffer_full() {
        let mut cfg = PacketModelConfig::tiny();
        cfg.buffer = 2;
        let arrivals: Vec<Arrival> = (0..2)
            .flat_map(|i| {
                vec![
                    Arrival {
                        step: 0,
                        input_port: i,
                        queue: 0,
                    },
                    Arrival {
                        step: 1,
                        input_port: i,
                        queue: 0,
                    },
                ]
            })
            .collect();
        let tr = reference_execution(&cfg, &arrivals);
        let total_dropped: u32 = tr.measurements.dropped.iter().flatten().sum();
        assert!(total_dropped > 0, "expected drops with buffer 2");
    }

    #[test]
    fn model_recovers_a_plausible_series_for_tiny_scenario() {
        let cfg = PacketModelConfig::tiny();
        let arrivals = vec![
            Arrival {
                step: 0,
                input_port: 0,
                queue: 0,
            },
            Arrival {
                step: 0,
                input_port: 1,
                queue: 0,
            },
            Arrival {
                step: 1,
                input_port: 0,
                queue: 2,
            },
            Arrival {
                step: 5,
                input_port: 1,
                queue: 0,
            },
        ];
        let tr = reference_execution(&cfg, &arrivals);
        match solve(&cfg, &tr.measurements, budget()) {
            PacketModelOutcome::Sat { len, .. } => {
                check_measurements(&cfg, &tr.measurements, &len);
            }
            r => panic!("expected sat, got {r:?}"),
        }
    }

    #[test]
    fn contradictory_measurements_are_unsat() {
        let cfg = PacketModelConfig::tiny();
        let arrivals = vec![Arrival {
            step: 0,
            input_port: 0,
            queue: 0,
        }];
        let mut meas = reference_execution(&cfg, &arrivals).measurements;
        // Claim a backlog without any received packets.
        meas.q_max[0][0] = 5;
        meas.received[0][0] = 0;
        meas.received[1][0] = 0;
        match solve(&cfg, &meas, budget()) {
            PacketModelOutcome::Unsat { .. } => {}
            r => panic!("expected unsat, got {r:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_returns_unknown_not_hang() {
        // A larger instance with a microscopic budget must come back
        // quickly — the graceful version of the paper's ">24 h" wall.
        let cfg = PacketModelConfig {
            num_ports: 4,
            queues_per_port: 2,
            buffer: 32,
            time_steps: 32,
            interval_len: 8,
            strict_priority: true,
        };
        let mut arrivals = Vec::new();
        for t in 0..16 {
            arrivals.push(Arrival {
                step: t,
                input_port: t % 4,
                queue: (t * 3) % 8,
            });
        }
        let tr = reference_execution(&cfg, &arrivals);
        let tight = Budget {
            timeout: Some(Duration::from_millis(200)),
            max_sat_conflicts: Some(10_000_000),
            max_bb_nodes: 1_000_000,
        };
        let start = Instant::now();
        match solve(&cfg, &tr.measurements, tight) {
            PacketModelOutcome::Unknown { .. } | PacketModelOutcome::Sat { .. } => {}
            r => panic!("unexpected {r:?}"),
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "budget not respected"
        );
    }
}
