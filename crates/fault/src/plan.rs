//! Fault taxonomy and the seedable injection plan.

use serde::{Deserialize, Serialize};

/// The fault taxonomy: every artifact class the injectors can produce.
///
/// The sanitizer (`fmml_telemetry::sanitize`) has a matching *artifact*
/// taxonomy on the detection side; the mapping is documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A measurement is lost: the value is replaced by the
    /// [`fmml_telemetry::sanitize::MISSING`] sentinel (detected as
    /// `Artifact::MissingValue`).
    MissingValue,
    /// Interval `k` reports interval `k-1`'s measurements again (a stuck
    /// exporter). Internally consistent, hence usually *undetectable* —
    /// the ladder still has to produce a constraint-satisfying window.
    DuplicatedInterval,
    /// A narrow hardware counter wrapped: the recorded value underflows
    /// by 2^16 (detected as `Artifact::ImplausibleValue` and repaired
    /// modulo 2^16).
    CounterWrap,
    /// A counter reset mid-run: the SNMP sent count drops to zero even
    /// though the queues were busy (detected as
    /// `Artifact::InconsistentSent` when a LANZ max is positive).
    CounterReset,
    /// Clock skew between the sampler and LANZ: adjacent intervals'
    /// periodic samples arrive out of order and are swapped.
    ClockSkew,
    /// A NaN spike in a floating-point series (model output or loss).
    NanSpike,
    /// An Inf spike in a floating-point series.
    InfSpike,
    /// A span of the fine-grained trace export is blacked out (all-zero
    /// observations), as if the collector dropped a batch.
    TraceBlackout,
    /// A CEM worker thread panics mid-batch (process-level fault,
    /// injected through the server's test-only hook). The worker
    /// recovers in place: it re-enqueues the poisoned batch, carries on,
    /// and loses nothing.
    WorkerPanic,
    /// The constraint solver stalls for a whole batch (a wedged SMT
    /// backend): the batch sleeps before it is enforced. Servers run the
    /// ladder without a circuit breaker, so a stall costs the batch's
    /// replies latency, not fidelity.
    SolverStall,
    /// A reply write is artificially delayed (a congested or misbehaving
    /// egress path), exercising write-timeout and slow-reader handling.
    SlowWrite,
    /// A network partition: every frame on the link is blackholed in
    /// *both* directions until a deterministic heal time, with no
    /// connection-level error surfaced to either side. Detected only by
    /// liveness probes / read timeouts; exercised by `fmml_serve::sim`'s
    /// link fates and the cluster failover path.
    Partition,
}

impl FaultKind {
    /// Stable lowercase label (used in reports and metric names).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::MissingValue => "missing",
            FaultKind::DuplicatedInterval => "dup",
            FaultKind::CounterWrap => "wrap",
            FaultKind::CounterReset => "reset",
            FaultKind::ClockSkew => "skew",
            FaultKind::NanSpike => "nan",
            FaultKind::InfSpike => "inf",
            FaultKind::TraceBlackout => "blackout",
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::SolverStall => "solver_stall",
            FaultKind::SlowWrite => "slow_write",
            FaultKind::Partition => "partition",
        }
    }

    pub const ALL: [FaultKind; 12] = [
        FaultKind::MissingValue,
        FaultKind::DuplicatedInterval,
        FaultKind::CounterWrap,
        FaultKind::CounterReset,
        FaultKind::ClockSkew,
        FaultKind::NanSpike,
        FaultKind::InfSpike,
        FaultKind::TraceBlackout,
        FaultKind::WorkerPanic,
        FaultKind::SolverStall,
        FaultKind::SlowWrite,
        FaultKind::Partition,
    ];
}

/// One injected fault: what, where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    pub kind: FaultKind,
    /// Queue (or port, for port-level measurements) the fault hit.
    pub queue: usize,
    /// Coarse interval (or fine bin for series/trace faults).
    pub interval: usize,
}

/// A seedable, serializable description of how much of each fault class
/// to inject. All rates are probabilities per *site* (one `(queue,
/// interval)` measurement cell for coarse faults, one `(queue, bin)` cell
/// for series faults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Base seed; injectors mix in a caller-provided salt so each window
    /// of a run sees different (but reproducible) corruption.
    pub seed: u64,
    /// P(periodic sample / LANZ max / SNMP count goes missing).
    pub miss_rate: f64,
    /// P(interval duplicates its predecessor).
    pub dup_rate: f64,
    /// P(LANZ max wraps a 16-bit counter).
    pub wrap_rate: f64,
    /// P(SNMP sent counter resets to zero).
    pub reset_rate: f64,
    /// P(adjacent periodic samples swap — clock skew).
    pub skew_rate: f64,
    /// P(one fine-grained cell of a float series spikes to NaN/Inf).
    pub nan_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none(0)
    }
}

impl FaultPlan {
    /// No faults at all (injectors become no-ops).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            miss_rate: 0.0,
            dup_rate: 0.0,
            wrap_rate: 0.0,
            reset_rate: 0.0,
            skew_rate: 0.0,
            nan_rate: 0.0,
        }
    }

    /// The default chaos preset: corrupts >= 10% of coarse intervals in
    /// expectation (the acceptance bar of the chaos smoke job) plus a
    /// sprinkle of non-finite spikes in the imputed series.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            miss_rate: 0.06,
            dup_rate: 0.03,
            wrap_rate: 0.03,
            reset_rate: 0.03,
            skew_rate: 0.03,
            nan_rate: 0.003,
        }
    }

    /// True iff any rate is positive.
    pub fn is_active(&self) -> bool {
        [
            self.miss_rate,
            self.dup_rate,
            self.wrap_rate,
            self.reset_rate,
            self.skew_rate,
            self.nan_rate,
        ]
        .iter()
        .any(|&r| r > 0.0)
    }

    /// Expected fraction of coarse measurement cells hit by at least one
    /// coarse fault (ignores the series-level `nan_rate`).
    pub fn expected_coarse_rate(&self) -> f64 {
        let miss = 1.0 - self.miss_rate;
        let dup = 1.0 - self.dup_rate;
        let wrap = 1.0 - self.wrap_rate;
        let reset = 1.0 - self.reset_rate;
        let skew = 1.0 - self.skew_rate;
        1.0 - miss * dup * wrap * reset * skew
    }
}

/// Process-level fault plan for the serving layer: which batches panic a
/// worker, stall the solver, or slow a reply write. Cadences are
/// deterministic (`every`-style counters rather than probabilities) so a
/// chaos run injects exactly the same process faults every time, and so
/// a re-enqueued batch — which gets a *new* batch number — does not
/// re-trip the same injection forever.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessFaultPlan {
    /// Panic the worker on every Nth micro-batch (`0` = never). Must be
    /// ≥ 2 when active: the re-enqueued batch advances the counter, so
    /// `every = 1` would poison every retry and exhaust the restart
    /// budget by construction.
    pub worker_panic_every: u64,
    /// Stall the enforcement step of every Nth micro-batch (`0` = never).
    pub solver_stall_every: u64,
    /// How long a stalled batch sleeps before enforcing.
    pub solver_stall_ms: u64,
    /// Delay every Nth reply write (`0` = never).
    pub slow_write_every: u64,
    /// How long a slowed write sleeps before hitting the socket.
    pub slow_write_ms: u64,
}

impl Default for ProcessFaultPlan {
    fn default() -> Self {
        ProcessFaultPlan::none()
    }
}

impl ProcessFaultPlan {
    /// No process faults (the hooks become no-ops).
    pub fn none() -> ProcessFaultPlan {
        ProcessFaultPlan {
            worker_panic_every: 0,
            solver_stall_every: 0,
            solver_stall_ms: 0,
            slow_write_every: 0,
            slow_write_ms: 0,
        }
    }

    /// The standard process-chaos preset used by CI's recovery smoke:
    /// frequent worker kills, periodic solver stalls and slowed writes,
    /// all bounded well under the drain budget.
    pub fn chaos() -> ProcessFaultPlan {
        ProcessFaultPlan {
            worker_panic_every: 8,
            solver_stall_every: 16,
            solver_stall_ms: 20,
            slow_write_every: 32,
            slow_write_ms: 5,
        }
    }

    /// True iff any hook can fire.
    pub fn is_active(&self) -> bool {
        self.worker_panic_every > 0 || self.solver_stall_every > 0 || self.slow_write_every > 0
    }

    /// Does ordinal `n` (0-based) of a cadence fire under `every`?
    pub fn fires(every: u64, n: u64) -> bool {
        every > 0 && (n + 1).is_multiple_of(every)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_preset_clears_the_ten_percent_bar() {
        let p = FaultPlan::chaos(1);
        assert!(p.is_active());
        assert!(
            p.expected_coarse_rate() >= 0.10,
            "chaos preset too tame: {}",
            p.expected_coarse_rate()
        );
    }

    #[test]
    fn none_is_inactive() {
        assert!(!FaultPlan::none(9).is_active());
        assert_eq!(FaultPlan::none(9).expected_coarse_rate(), 0.0);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let p = FaultPlan::chaos(42);
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FaultKind::ALL.len());
    }

    #[test]
    fn partition_is_in_the_taxonomy() {
        assert!(FaultKind::ALL.contains(&FaultKind::Partition));
        assert_eq!(FaultKind::Partition.label(), "partition");
    }

    #[test]
    fn process_plan_round_trips_and_cadences_fire() {
        let p = ProcessFaultPlan::chaos();
        assert!(p.is_active());
        assert!(!ProcessFaultPlan::none().is_active());
        let json = serde_json::to_string(&p).unwrap();
        let back: ProcessFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
        // `every = 3` fires on ordinals 2, 5, 8, ... and never on 0.
        let fired: Vec<u64> = (0..10).filter(|&n| ProcessFaultPlan::fires(3, n)).collect();
        assert_eq!(fired, vec![2, 5, 8]);
        assert!((0..100).all(|n| !ProcessFaultPlan::fires(0, n)));
    }
}
