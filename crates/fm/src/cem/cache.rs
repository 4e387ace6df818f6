//! Interval-solution memo cache.
//!
//! CEM decomposes each window into independent 50 ms interval problems
//! (see the module docs of [`super`]), and real traces repeat themselves:
//! idle queues produce all-zero intervals, steady-state traffic produces
//! identical `(target, maxes, samples, m_out)` tuples window after
//! window. Solving each of those from scratch — especially through the
//! optimizing SMT engine — is pure waste on the inference hot path.
//!
//! [`SolutionCache`] hash-conses the full [`IntervalProblem`] (no lossy
//! fingerprinting: the key *is* the problem, so a hit is provably the
//! answer the engine would recompute) together with an [`EngineKey`]
//! describing which engine/budget produced the entry. Both engines are
//! deterministic functions of `(problem, budget)`, so memoization is
//! exact: cache-on and cache-off runs yield bitwise-identical corrected
//! windows and identical degradation rungs. The one exception is a
//! wall-clock SMT budget (`Budget::timeout`), whose outcome is
//! load-dependent; such configurations report
//! [`EngineKey::cacheable`]` == false` and bypass the cache entirely
//! rather than risk replaying a stale timeout verdict.
//!
//! Each entry also remembers how long the original solve took
//! (`solve_ns`). The degradation ladder uses this to make the cache
//! **deadline-aware** in two ways:
//!
//! * a hit is consulted *before* the window-deadline check, so even an
//!   interval that would otherwise drop to the clamp projection gets the
//!   cached optimal answer for free;
//! * the time a hit saved is *rebated* to the window's deadline, buying
//!   the remaining hard (cache-missing) intervals more solver time.
//!
//! Eviction is FIFO at a fixed capacity — deterministic, O(1), and good
//! enough for a workload whose working set is "the steady states of the
//! ports currently monitored". Hit/miss/eviction totals are exported
//! process-wide as `fm.cem.cache.*` metrics plus per-cache [`CacheStats`]
//! for the CLI's per-run cache line and tests.

use super::{DegradationLevel, IntervalProblem, IntervalSolution};
use fmml_obs::{Counter, Gauge};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Interval problems answered from the cache (all caches in the process).
static CACHE_HITS: Counter = Counter::new("fm.cem.cache.hits");
/// Interval problems that had to be solved and were then inserted.
static CACHE_MISSES: Counter = Counter::new("fm.cem.cache.misses");
/// Entries evicted by the FIFO capacity bound.
static CACHE_EVICTIONS: Counter = Counter::new("fm.cem.cache.evictions");
/// Microseconds of solver time skipped by hits (sum of the original
/// solve cost of every hit entry).
static CACHE_SAVED_US: Counter = Counter::new("fm.cem.cache.saved_us");
/// Peak entry count across all caches (high-water mark).
static CACHE_SIZE_PEAK: Gauge = Gauge::new("fm.cem.cache.size_peak");

/// Default capacity (entries) of a run's or a server's cache.
pub const DEFAULT_CAPACITY: usize = 8192;

/// Which engine (and which *deterministic* budget) produced an entry.
///
/// Two lookups may share an entry only if a fresh solve would provably
/// return the same answer, so every knob that can change the solver's
/// output is part of the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKey {
    /// The exact combinatorial projection (no tunables).
    Fast,
    /// The optimizing SMT encoding.
    Smt {
        /// `Budget::max_sat_conflicts` (`u64::MAX` = unlimited).
        max_sat_conflicts: u64,
        /// `Budget::max_bb_nodes`.
        max_bb_nodes: u64,
        /// The ladder's escalated-retry factor.
        escalation: u32,
        /// A wall-clock timeout was configured. Kept in the key for
        /// completeness, but such entries are never cached — see
        /// [`EngineKey::cacheable`].
        has_timeout: bool,
    },
}

impl EngineKey {
    /// Key for the degradation ladder — the only path that memoizes
    /// (warm-started SMT + escalated retry, or the fast projection).
    pub fn for_ladder(cfg: &super::LadderConfig) -> EngineKey {
        match &cfg.engine {
            super::CemEngine::Fast => EngineKey::Fast,
            super::CemEngine::Smt { budget } => {
                EngineKey::from_budget(budget, cfg.escalation_factor)
            }
        }
    }

    fn from_budget(b: &fmml_smt::solver::Budget, escalation: u32) -> EngineKey {
        EngineKey::Smt {
            max_sat_conflicts: b.max_sat_conflicts.unwrap_or(u64::MAX),
            max_bb_nodes: b.max_bb_nodes,
            escalation,
            has_timeout: b.timeout.is_some(),
        }
    }

    /// Whether solves under this engine are deterministic functions of
    /// the problem (and therefore safe to memoize). Wall-clock budgets
    /// are load-dependent, so they are excluded.
    pub fn cacheable(&self) -> bool {
        match self {
            EngineKey::Fast => true,
            EngineKey::Smt { has_timeout, .. } => !has_timeout,
        }
    }
}

/// The full cache key: engine/budget plus the hash-consed problem.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub engine: EngineKey,
    pub problem: IntervalProblem,
}

impl CacheKey {
    pub fn new(engine: EngineKey, problem: &IntervalProblem) -> CacheKey {
        CacheKey {
            engine,
            problem: problem.clone(),
        }
    }
}

/// A memoized interval answer.
#[derive(Debug, Clone)]
pub struct CachedInterval {
    pub solution: IntervalSolution,
    /// The ladder rung the original solve landed on.
    pub rung: DegradationLevel,
    /// What the original solve cost — the time a hit saves.
    pub solve_ns: u64,
}

/// Per-cache counters, snapshotted by [`SolutionCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Current entry count.
    pub len: usize,
    /// Nanoseconds of solver time skipped by hits.
    pub saved_ns: u64,
}

impl CacheStats {
    /// Hits over lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Inner {
    map: HashMap<Arc<CacheKey>, CachedInterval>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<Arc<CacheKey>>,
}

/// Thread-safe memo cache for interval solutions. See the module docs.
pub struct SolutionCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    saved_ns: AtomicU64,
}

impl SolutionCache {
    /// A fresh cache holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> SolutionCache {
        let capacity = capacity.max(1);
        SolutionCache {
            inner: Mutex::new(Inner {
                map: HashMap::with_capacity(capacity.min(1024)),
                order: VecDeque::with_capacity(capacity.min(1024)),
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            saved_ns: AtomicU64::new(0),
        }
    }

    /// Look up a problem. Counts a hit or a miss; a hit also accrues the
    /// entry's original solve cost to the "saved" totals.
    pub fn lookup(&self, key: &CacheKey) -> Option<CachedInterval> {
        let inner = self.inner.lock().expect("cache poisoned");
        match inner.map.get(key) {
            Some(v) => {
                let v = v.clone();
                drop(inner);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.saved_ns.fetch_add(v.solve_ns, Ordering::Relaxed);
                CACHE_HITS.inc();
                CACHE_SAVED_US.add(v.solve_ns / 1_000);
                Some(v)
            }
            None => {
                drop(inner);
                self.misses.fetch_add(1, Ordering::Relaxed);
                CACHE_MISSES.inc();
                None
            }
        }
    }

    /// Insert a solved interval, evicting the oldest entry when full.
    /// Racing inserts of the same key keep the first-inserted entry
    /// (both are correct: solves are deterministic).
    pub fn insert(&self, key: CacheKey, value: CachedInterval) {
        let mut inner = self.inner.lock().expect("cache poisoned");
        if inner.map.contains_key(&key) {
            return;
        }
        if inner.map.len() >= self.capacity {
            if let Some(old) = inner.order.pop_front() {
                inner.map.remove(&old);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                CACHE_EVICTIONS.inc();
            }
        }
        let key = Arc::new(key);
        inner.order.push_back(Arc::clone(&key));
        inner.map.insert(key, value);
        CACHE_SIZE_PEAK.set_max(inner.map.len() as i64);
    }

    /// Per-cache counters (process-wide totals live in `fm.cem.cache.*`).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.inner.lock().expect("cache poisoned").map.len(),
            saved_ns: self.saved_ns.load(Ordering::Relaxed),
        }
    }

    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for SolutionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolutionCache")
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem(seed: i64) -> IntervalProblem {
        IntervalProblem {
            len: 4,
            target: vec![vec![seed, 2, 1, 0]],
            maxes: vec![3],
            samples: vec![0],
            m_out: 3,
        }
    }

    fn entry(obj: u64) -> CachedInterval {
        CachedInterval {
            solution: IntervalSolution {
                values: vec![vec![0, 2, 1, 0]],
                objective: obj,
            },
            rung: DegradationLevel::Full,
            solve_ns: 1_000,
        }
    }

    #[test]
    fn lookup_miss_then_hit() {
        let c = SolutionCache::new(8);
        let key = CacheKey::new(EngineKey::Fast, &problem(1));
        assert!(c.lookup(&key).is_none());
        c.insert(key.clone(), entry(7));
        let hit = c.lookup(&key).expect("hit");
        assert_eq!(hit.solution.objective, 7);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.len), (1, 1, 1));
        assert_eq!(s.saved_ns, 1_000);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_problems_and_engines_do_not_collide() {
        let c = SolutionCache::new(8);
        c.insert(CacheKey::new(EngineKey::Fast, &problem(1)), entry(1));
        assert!(c
            .lookup(&CacheKey::new(EngineKey::Fast, &problem(2)))
            .is_none());
        let smt = EngineKey::Smt {
            max_sat_conflicts: 100,
            max_bb_nodes: 100,
            escalation: 4,
            has_timeout: false,
        };
        assert!(c.lookup(&CacheKey::new(smt, &problem(1))).is_none());
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let c = SolutionCache::new(2);
        for i in 0..3 {
            c.insert(CacheKey::new(EngineKey::Fast, &problem(i)), entry(i as u64));
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        // Oldest (0) is gone, newer entries remain.
        assert!(c
            .lookup(&CacheKey::new(EngineKey::Fast, &problem(0)))
            .is_none());
        assert!(c
            .lookup(&CacheKey::new(EngineKey::Fast, &problem(2)))
            .is_some());
    }

    #[test]
    fn duplicate_insert_keeps_first_entry() {
        let c = SolutionCache::new(4);
        let key = CacheKey::new(EngineKey::Fast, &problem(5));
        c.insert(key.clone(), entry(1));
        c.insert(key.clone(), entry(2));
        assert_eq!(c.lookup(&key).unwrap().solution.objective, 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn timeout_budgets_are_not_cacheable() {
        let b = fmml_smt::solver::Budget {
            timeout: Some(std::time::Duration::from_millis(1)),
            max_sat_conflicts: Some(10),
            max_bb_nodes: 10,
        };
        let key = EngineKey::from_budget(&b, 4);
        assert!(!key.cacheable());
        assert!(EngineKey::Fast.cacheable());
        let nb = fmml_smt::solver::Budget::default();
        assert!(EngineKey::from_budget(&nb, 4).cacheable());
    }
}
