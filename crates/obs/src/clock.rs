//! # Injectable time source: real or virtual
//!
//! Everything latency-sensitive in the serving stack (batching
//! deadlines, parked-session TTLs, SLO watchdog ticks, breaker
//! cooldowns) ultimately reads `Instant::now()` or calls
//! `thread::sleep`. [`Clock`] abstracts both so the deterministic
//! simulation harness (`fmml-simtest`) can run full session lifecycles
//! — park, TTL expiry, resume, half-open probes — in milliseconds of
//! wall time with zero real sleeps.
//!
//! The trick that keeps the rest of the codebase unchanged: a
//! [`VirtualClock`] maps a monotonically advancing virtual nanosecond
//! counter onto a fixed epoch `Instant` captured at construction.
//! `Clock::now()` therefore still returns a plain `std::time::Instant`,
//! so every existing `Instant`-typed field (job timestamps, trace
//! spans, breaker cooldown math) works without modification —
//! `a.duration_since(b)` between two virtual instants is exactly the
//! virtual time elapsed between them.
//!
//! ## Semantics
//!
//! * `Clock::System` delegates to `Instant::now()` / `thread::sleep`.
//! * `Clock::Virtual(vc)`: `now()` is `epoch + virtual_ns`; `sleep(d)`
//!   blocks on a condvar until some other thread `advance()`s the
//!   clock past the wake target. A real-time **safety valve**
//!   (default 5 s) bounds each wait so a mis-paced explorer degrades
//!   into a slow test instead of a deadlock; sleepers whose valve
//!   fires return early *without* advancing time (all in-tree callers
//!   sleep inside polling loops, so an early return is always safe).
//! * `auto_advance`: once set (typically during shutdown/teardown),
//!   a virtual `sleep(d)` advances the clock by `d` itself instead of
//!   blocking — drain loops finish immediately even if the driver has
//!   stopped pumping time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Upper bound on how long a virtual sleeper will block in *real* time
/// waiting for an `advance()` before giving up and returning early.
const VALVE: Duration = Duration::from_secs(5);

/// A monotonically advancing virtual time source.
///
/// Construct via [`VirtualClock::new`] (wrapped in an `Arc`), hand
/// clones of `Clock::Virtual(vc)` to the components under test, and
/// pump time from the test driver with [`advance`](VirtualClock::advance).
#[derive(Debug)]
pub struct VirtualClock {
    /// Real instant corresponding to virtual t=0. All virtual instants
    /// are `epoch + ns`; durations between them are purely virtual.
    epoch: Instant,
    ns: Mutex<u64>,
    cv: Condvar,
    auto_advance: AtomicBool,
    /// Diagnostic: number of sleeps whose real-time valve fired.
    valve_trips: AtomicU64,
}

impl VirtualClock {
    /// A fresh clock at virtual t=0.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Arc<Self> {
        Arc::new(VirtualClock {
            epoch: Instant::now(),
            ns: Mutex::new(0),
            cv: Condvar::new(),
            auto_advance: AtomicBool::new(false),
            valve_trips: AtomicU64::new(0),
        })
    }

    /// Current virtual time as an `Instant` (epoch + elapsed virtual ns).
    pub fn now(&self) -> Instant {
        let ns = *self.ns.lock().unwrap();
        self.epoch + Duration::from_nanos(ns)
    }

    /// Elapsed virtual nanoseconds since t=0.
    pub fn now_ns(&self) -> u64 {
        *self.ns.lock().unwrap()
    }

    /// Advance virtual time by `d`, waking every sleeper whose target
    /// has been reached. The driver (explorer / test) is the only
    /// caller; components under test never advance time themselves.
    pub fn advance(&self, d: Duration) {
        let mut ns = self.ns.lock().unwrap();
        *ns = ns.saturating_add(d.as_nanos().min(u128::from(u64::MAX)) as u64);
        drop(ns);
        self.cv.notify_all();
    }

    /// Block until virtual time reaches `now + d` (or the real-time
    /// safety valve fires, or auto-advance is enabled).
    pub fn sleep(&self, d: Duration) {
        let target_ns;
        {
            let ns = self.ns.lock().unwrap();
            target_ns = ns.saturating_add(d.as_nanos().min(u128::from(u64::MAX)) as u64);
        }
        self.sleep_until_ns(target_ns);
    }

    fn sleep_until_ns(&self, target_ns: u64) {
        let deadline = Instant::now() + VALVE;
        let mut ns = self.ns.lock().unwrap();
        loop {
            if *ns >= target_ns {
                return;
            }
            if self.auto_advance.load(Ordering::Acquire) {
                // Teardown mode: the sleeper itself advances time so
                // drain loops terminate without a driver.
                *ns = target_ns;
                drop(ns);
                self.cv.notify_all();
                return;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.valve_trips.fetch_add(1, Ordering::Relaxed);
                return; // valve: give up without advancing
            }
            let (guard, _timeout) = self
                .cv
                .wait_timeout(ns, left.min(Duration::from_millis(50)))
                .unwrap();
            ns = guard;
        }
    }

    /// Enter auto-advance mode: subsequent (and currently blocked)
    /// virtual sleeps self-advance instead of waiting for a driver.
    /// Used at shutdown so server drain loops can finish unattended.
    pub fn set_auto_advance(&self, on: bool) {
        self.auto_advance.store(on, Ordering::Release);
        self.cv.notify_all();
    }

    /// How many sleeps bailed out via the real-time safety valve.
    /// A deterministic run must report 0.
    pub fn valve_trips(&self) -> u64 {
        self.valve_trips.load(Ordering::Relaxed)
    }
}

/// Injectable time source. `Clone` is cheap (enum of unit / `Arc`).
#[derive(Debug, Clone, Default)]
pub enum Clock {
    /// Real wall-clock time: `Instant::now()` + `thread::sleep`.
    #[default]
    System,
    /// Driver-paced virtual time; see [`VirtualClock`].
    Virtual(Arc<VirtualClock>),
}

impl Clock {
    /// A fresh virtual clock plus its driver handle.
    pub fn new_virtual() -> (Clock, Arc<VirtualClock>) {
        let vc = VirtualClock::new();
        (Clock::Virtual(vc.clone()), vc)
    }

    pub fn now(&self) -> Instant {
        match self {
            Clock::System => Instant::now(),
            Clock::Virtual(vc) => vc.now(),
        }
    }

    pub fn sleep(&self, d: Duration) {
        match self {
            Clock::System => std::thread::sleep(d),
            Clock::Virtual(vc) => vc.sleep(d),
        }
    }

    /// The driver handle if virtual.
    pub fn virtual_handle(&self) -> Option<Arc<VirtualClock>> {
        match self {
            Clock::Virtual(vc) => Some(vc.clone()),
            Clock::System => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn system_clock_is_instant_now() {
        let c = Clock::System;
        let a = c.now();
        let b = Instant::now();
        assert!(b >= a);
    }

    #[test]
    fn virtual_now_tracks_advance() {
        let (clock, vc) = Clock::new_virtual();
        let t0 = clock.now();
        vc.advance(Duration::from_millis(250));
        let t1 = clock.now();
        assert_eq!(t1.duration_since(t0), Duration::from_millis(250));
        assert_eq!(vc.now_ns(), 250_000_000);
    }

    #[test]
    fn virtual_sleep_wakes_on_advance() {
        let (clock, vc) = Clock::new_virtual();
        let (tx, rx) = mpsc::channel();
        let c2 = clock.clone();
        let h = thread::spawn(move || {
            c2.sleep(Duration::from_secs(3600)); // an hour of virtual time
            tx.send(c2.now()).unwrap();
        });
        // Give the sleeper a moment to block, then pump time.
        thread::sleep(Duration::from_millis(20));
        vc.advance(Duration::from_secs(1800));
        assert!(rx.try_recv().is_err(), "woke before target");
        vc.advance(Duration::from_secs(1800));
        let woke_at = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(woke_at.duration_since(vc.epoch), Duration::from_secs(3600));
        h.join().unwrap();
        assert_eq!(vc.valve_trips(), 0);
    }

    #[test]
    fn auto_advance_unblocks_sleepers() {
        let (clock, vc) = Clock::new_virtual();
        let c2 = clock.clone();
        let h = thread::spawn(move || {
            c2.sleep(Duration::from_secs(9999));
        });
        thread::sleep(Duration::from_millis(20));
        vc.set_auto_advance(true);
        h.join().unwrap();
        assert!(vc.now_ns() >= 9999 * 1_000_000_000);
        // New sleeps self-advance immediately.
        clock.sleep(Duration::from_secs(1));
        assert!(vc.now_ns() >= 10_000 * 1_000_000_000);
    }

    #[test]
    fn durations_between_virtual_instants_are_virtual() {
        let (clock, vc) = Clock::new_virtual();
        let a = clock.now();
        vc.advance(Duration::from_micros(7));
        let b = clock.now();
        vc.advance(Duration::from_micros(5));
        let c = clock.now();
        assert_eq!(b - a, Duration::from_micros(7));
        assert_eq!(c - a, Duration::from_micros(12));
    }
}
