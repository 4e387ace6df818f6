//! The offline workload: a class-stratified set of interval problems
//! from the trained model's output, pushed through the SMT rung of the
//! degradation ladder — cold, uncached, no sockets.

use crate::catalog::WARM_UP;
use crate::stats::{process_cpu, quantile};
use crate::world::{smt_ladder, window_of, World};
use fmml_core::imputer::Imputer;
use fmml_fm::cem::{
    enforce_degraded_with, fast_engine, interval_problem, DegradationLevel, EnforceOptions,
    IntervalProblem, LadderConfig,
};
use fmml_fm::WindowConstraints;
use fmml_smt::solver::Budget;
use std::time::{Duration, Instant};

/// Structural cost classes: non-empty steps of the model's (rounded)
/// output in the interval — what the C3 indicator encoding branches
/// on. Never measured time.
pub const CLASS_UPPER: [usize; 4] = [0, 2, 4, usize::MAX];
/// Problems drawn from each class, frozen.
pub const PER_CLASS: usize = 64;

/// One operation: a single interval as its own one-interval window.
pub struct Problem {
    pub constraints: WindowConstraints,
    pub target: Vec<Vec<f32>>,
    /// The Fast engine's optimum, which the SMT rung must match.
    pub fast_objective: u64,
}

fn class_of(p: &IntervalProblem) -> usize {
    let ne = (0..p.len)
        .filter(|&t| p.target.iter().any(|q| q[t] > 0))
        .count();
    CLASS_UPPER
        .iter()
        .position(|&hi| ne <= hi)
        .expect("last class is open-ended")
}

/// Walk the replay traces window by window, in a seed-fixed order, and
/// keep the first [`PER_CLASS`] problems of every class. A class the
/// traffic cannot fill borrows from its lighter neighbour (warned about
/// on stderr — the mix then differs from the catalog's).
pub fn build_problems(world: &World) -> Vec<Problem> {
    let wl = world.wl;
    let (il, wi) = (wl.interval_len, wl.window_intervals);
    let mut by_class: Vec<Vec<Problem>> = CLASS_UPPER.iter().map(|_| Vec::new()).collect();
    let windows_per_trace = wl.trace_intervals / wi;
    'scan: for w_idx in 0..windows_per_trace {
        for trace in &world.traces {
            let window = window_of(&trace[w_idx * wi..(w_idx + 1) * wi], il);
            if !window.has_activity() {
                continue;
            }
            let constraints = WindowConstraints::from_window(&window);
            let imputed = world.model.impute(&window);
            for k in 0..wi {
                let p = interval_problem(&constraints, &imputed, k);
                let class = class_of(&p);
                if by_class[class].len() >= 2 * PER_CLASS {
                    continue;
                }
                let Some(fast) = fast_engine::solve(&p) else {
                    continue;
                };
                by_class[class].push(Problem {
                    constraints: WindowConstraints {
                        interval_len: il,
                        len: il,
                        maxes: p.maxes.iter().map(|&m| vec![m]).collect(),
                        samples: p.samples.iter().map(|&s| vec![s]).collect(),
                        sent: vec![p.m_out],
                    },
                    target: imputed
                        .iter()
                        .map(|q| q[k * il..(k + 1) * il].to_vec())
                        .collect(),
                    fast_objective: fast.objective,
                });
            }
            if by_class.iter().all(|c| c.len() >= PER_CLASS) {
                break 'scan;
            }
        }
    }
    let mut owed = 0;
    for class in (0..by_class.len()).rev() {
        let want = PER_CLASS + owed;
        let have = by_class[class].len();
        if have < want && class > 0 {
            eprintln!(
                "warning: seed {} fills cost class {class} with {have} of {want} problems; \
                 borrowing from class {}",
                world.seed,
                class - 1
            );
        }
        owed = want.saturating_sub(have);
        by_class[class].truncate(want);
    }
    // Deal the classes round-robin so no stretch of a pass is all-heavy.
    let mut piles: Vec<_> = by_class.into_iter().map(Vec::into_iter).collect();
    let mut set = Vec::with_capacity(CLASS_UPPER.len() * PER_CLASS);
    while piles.iter().any(|p| p.len() > 0) {
        set.extend(piles.iter_mut().filter_map(Iterator::next));
    }
    assert!(
        !set.is_empty(),
        "seed {}: no interval problem found",
        world.seed
    );
    set
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Every solve of the round's sequential passes, ms.
    pub solve_ms: Vec<f64>,
    /// Whole passes over the problem set, their wall time and (for the
    /// `jobs = nproc` ones) process CPU.
    pub seq_passes: usize,
    pub seq_time: Duration,
    pub jobs_passes: usize,
    pub jobs_time: Duration,
    pub jobs_cpu: Duration,
}

/// Solver work counted by the crates' own `smt.*` counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmtWork {
    pub decisions: u64,
    pub conflicts: u64,
    pub pivots: u64,
    pub iterations: u64,
}

impl SmtWork {
    fn now() -> SmtWork {
        let snap = fmml_obs::snapshot();
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |(_, v)| *v)
        };
        SmtWork {
            decisions: get("smt.decisions"),
            conflicts: get("smt.conflicts"),
            pivots: get("smt.simplex_pivots"),
            iterations: get("smt.iterations"),
        }
    }

    fn add_since(&mut self, earlier: SmtWork) {
        let now = SmtWork::now();
        self.decisions += now.decisions - earlier.decisions;
        self.conflicts += now.conflicts - earlier.conflicts;
        self.pivots += now.pivots - earlier.pivots;
        self.iterations += now.iterations - earlier.iterations;
    }
}

#[derive(Default)]
pub struct OfflineOutcome {
    pub problems: usize,
    pub rounds: Vec<Round>,
    /// Solver work of the sequential passes.
    pub seq_work: SmtWork,
    /// Solutions that are infeasible, sub-optimal, degraded, or differ
    /// between the sequential and the parallel pass.
    pub wrong: u64,
    pub fingerprint: u64,
}

impl OfflineOutcome {
    pub fn attempted(&self) -> u64 {
        self.rounds
            .iter()
            .map(|r| ((r.seq_passes + r.jobs_passes) * self.problems) as u64)
            .sum()
    }

    /// Intervals solved one at a time, and the wall time that took.
    pub fn seq_ops(&self) -> f64 {
        (self.rounds.iter().map(|r| r.seq_passes).sum::<usize>() * self.problems) as f64
    }

    pub fn seq_time(&self) -> Duration {
        self.rounds.iter().map(|r| r.seq_time).sum()
    }

    /// Per round: per-interval solve time at quantile `q`, one caller, ms.
    pub fn lat_ms(&self, q: f64) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| quantile(&r.solve_ms, q))
            .collect()
    }

    /// Per round: intervals per second through the `jobs = nproc` passes.
    pub fn capacities_per_s(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| (r.jobs_passes * self.problems) as f64 / r.jobs_time.as_secs_f64())
            .collect()
    }

    /// Per round: process CPU per interval of the `jobs = nproc` passes, ms.
    pub fn cpu_ms_per_op(&self) -> Vec<f64> {
        self.rounds
            .iter()
            .map(|r| r.jobs_cpu.as_secs_f64() * 1e3 / (r.jobs_passes * self.problems) as f64)
            .collect()
    }
}

/// All problems as one many-interval window: what `jobs` parallelises.
fn concatenated(problems: &[Problem]) -> (WindowConstraints, Vec<Vec<f32>>) {
    let first = &problems[0].constraints;
    let nq = first.num_queues();
    let cat = |f: &dyn Fn(&Problem, usize) -> u32| -> Vec<Vec<u32>> {
        (0..nq)
            .map(|q| problems.iter().map(|p| f(p, q)).collect())
            .collect()
    };
    let w = WindowConstraints {
        interval_len: first.interval_len,
        len: first.interval_len * problems.len(),
        maxes: cat(&|p, q| p.constraints.maxes[q][0]),
        samples: cat(&|p, q| p.constraints.samples[q][0]),
        sent: problems.iter().map(|p| p.constraints.sent[0]).collect(),
    };
    let target = (0..nq)
        .map(|q| {
            problems
                .iter()
                .flat_map(|p| p.target[q].iter().copied())
                .collect()
        })
        .collect();
    (w, target)
}

/// One sequential pass: every problem on its own, timed; returns the
/// corrected series for the cross-check and counts wrong answers.
fn sequential_pass(
    problems: &[Problem],
    ladder: &LadderConfig,
    round: &mut Round,
    wrong: &mut u64,
) -> Vec<Vec<Vec<u32>>> {
    let start = Instant::now();
    let corrected = problems
        .iter()
        .map(|p| {
            let t = Instant::now();
            let got = enforce_degraded_with(
                &p.constraints,
                &p.target,
                ladder,
                &EnforceOptions::default(),
            );
            round.solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let ok = got.levels == [DegradationLevel::Full]
                && got.relaxed.is_none()
                && p.constraints.satisfied_exact(&got.corrected)
                && got.objective == p.fast_objective;
            *wrong += u64::from(!ok);
            got.corrected
        })
        .collect();
    round.seq_passes += 1;
    round.seq_time += start.elapsed();
    corrected
}

/// `rounds` rounds; each runs whole sequential passes for `phase`, then
/// whole `jobs = nproc` passes for `phase` (at least one of each).
pub fn run(problems: &[Problem], phase: Duration, rounds: usize, budget: Budget) -> OfflineOutcome {
    let ladder = smt_ladder(budget);
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (big_w, big_target) = concatenated(problems);
    let il = big_w.interval_len;
    let mut out = OfflineOutcome {
        problems: problems.len(),
        ..OfflineOutcome::default()
    };
    // Warm-up, discarded: sequential passes only (a `jobs` pass is the
    // same solver on the same problems).
    let (mut warm, start) = (Round::default(), Instant::now());
    while start.elapsed() < phase.min(WARM_UP) {
        sequential_pass(problems, &ladder, &mut warm, &mut out.wrong);
    }
    for _ in 0..rounds {
        let mut round = Round::default();
        let work0 = SmtWork::now();
        let start = Instant::now();
        let mut reference = sequential_pass(problems, &ladder, &mut round, &mut out.wrong);
        while start.elapsed() < phase {
            reference = sequential_pass(problems, &ladder, &mut round, &mut out.wrong);
        }
        out.seq_work.add_since(work0);

        let start = Instant::now();
        while round.jobs_passes == 0 || start.elapsed() < phase {
            let (cpu0, t) = (process_cpu(), Instant::now());
            let got = enforce_degraded_with(
                &big_w,
                &big_target,
                &ladder,
                &EnforceOptions::new(jobs, None),
            );
            round.jobs_passes += 1;
            round.jobs_time += t.elapsed();
            round.jobs_cpu += process_cpu().saturating_sub(cpu0);
            // Bitwise the sequential answers, interval by interval.
            for (i, want) in reference.iter().enumerate() {
                let same = want
                    .iter()
                    .zip(&got.corrected)
                    .all(|(w, g)| w[..] == g[i * il..(i + 1) * il]);
                out.wrong += u64::from(!same);
            }
        }
        if out.fingerprint == 0 {
            out.fingerprint = fmml_fm::cem::hash_u32_series(
                &reference.iter().flatten().cloned().collect::<Vec<_>>(),
            );
        }
        out.rounds.push(round);
    }
    out
}
