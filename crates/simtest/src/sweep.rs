//! One sweep per mode and one pin check: what `fmml simtest` prints and
//! what `tests/pins.rs` asserts.
//!
//! A pin file (`bench/SIMTEST_pinned.json`,
//! `bench/SIMTEST_cluster_pinned.json`) records a sweep's parameters and
//! the fold of its per-seed fingerprints. The pin holds only for
//! those parameters, so a file written for other ones is reported as a
//! parameter mismatch, never as behaviour drift.

use crate::{cluster, explorer, ClusterSimConfig, SeedOutcome, SimtestConfig};
use fmml_obs::fnv;
use serde_json::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// A finished sweep over a seed range.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Per-seed outcomes in seed order (cluster mode: the first pass).
    pub outcomes: Vec<SeedOutcome>,
    /// `outcomes`' fingerprints folded in seed order: the number a pin
    /// file holds.
    pub fingerprint: u64,
    /// Cluster mode runs the range twice. These seeds folded differently
    /// on the second pass, as `(seed, first, second)`.
    pub irreproducible: Vec<(u64, u64, u64)>,
    /// The parameters a pin of this sweep holds for, in pin-file order.
    pub params: Vec<(&'static str, u64)>,
    pub wall: Duration,
}

/// Fold per-seed fingerprints, in seed order, into one run fingerprint.
fn fold(outcomes: &[SeedOutcome]) -> u64 {
    outcomes
        .iter()
        .fold(fnv::OFFSET, |h, o| fnv::fold(h, o.fingerprint))
}

/// The single-node sweep over `cfg`'s seed range.
pub fn single(cfg: &SimtestConfig) -> Sweep {
    let t0 = Instant::now();
    let outcomes = explorer::run(cfg);
    Sweep {
        fingerprint: fold(&outcomes),
        outcomes,
        irreproducible: Vec::new(),
        params: vec![
            ("seeds", cfg.seeds),
            ("start_seed", cfg.start_seed),
            ("clients", cfg.clients as u64),
            ("ops", cfg.ops as u64),
        ],
        wall: t0.elapsed(),
    }
}

/// The cluster sweep. The range runs twice and every seed must
/// fingerprint the same both times: placement, migration and probe
/// timing may differ between the passes, reply content must not.
pub fn cluster(cfg: &ClusterSimConfig) -> Sweep {
    let t0 = Instant::now();
    let outcomes = cluster::run(cfg);
    let irreproducible = outcomes
        .iter()
        .zip(cluster::run(cfg))
        .filter(|(a, b)| a.fingerprint != b.fingerprint)
        .map(|(a, b)| (a.seed, a.fingerprint, b.fingerprint))
        .collect();
    Sweep {
        fingerprint: fold(&outcomes),
        outcomes,
        irreproducible,
        params: vec![
            ("seeds", cfg.seeds),
            ("start_seed", cfg.start_seed),
            ("clients", cfg.clients as u64),
            ("ops", cfg.ops as u64),
            ("backends", cfg.backends as u64),
        ],
        wall: t0.elapsed(),
    }
}

/// What [`Sweep::check_pin`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pin {
    Written,
    Verified,
}

impl Sweep {
    pub fn violating(&self) -> impl Iterator<Item = &SeedOutcome> {
        self.outcomes.iter().filter(|o| !o.violations.is_empty())
    }

    /// `Err` when a seed violated the protocol model or a seed did not
    /// reproduce, naming the first such seed.
    pub fn verdict(&self) -> Result<(), String> {
        if let Some(&(seed, a, b)) = self.irreproducible.first() {
            return Err(format!(
                "{} seed(s) not reproducible, first seed {seed}: {a:016x} then {b:016x}",
                self.irreproducible.len()
            ));
        }
        match self.violating().next() {
            None => Ok(()),
            Some(o) => Err(format!(
                "{} seed(s) violated the protocol model, first FMML_SIM_SEED={}: {}",
                self.violating().count(),
                o.seed,
                o.violations[0]
            )),
        }
    }

    /// Compare the fingerprint with the pin file at `path`, or write the
    /// file if there is none.
    pub fn check_pin(&self, path: &Path) -> Result<Pin, String> {
        let shown = path.display();
        let mut fields: Vec<(String, Value)> = self
            .params
            .iter()
            .map(|&(k, v)| (k.to_string(), Value::U64(v)))
            .collect();
        let got = format!("{:016x}", self.fingerprint);
        fields.push(("fingerprint".into(), Value::String(got.clone())));
        let record = Value::Object(fields);
        if !path.exists() {
            let pretty =
                serde_json::to_string_pretty(&record).map_err(|e| format!("{shown}: {e}"))?;
            std::fs::write(path, format!("{pretty}\n")).map_err(|e| format!("{shown}: {e}"))?;
            return Ok(Pin::Written);
        }
        let raw = std::fs::read_to_string(path).map_err(|e| format!("{shown}: {e}"))?;
        let pinned: Value =
            serde_json::from_str(&raw).map_err(|e| format!("{shown}: not valid JSON: {e}"))?;
        for &(key, _) in &self.params {
            if pinned.get(key) != record.get(key) {
                return Err(format!(
                    "{shown}: pinned {key}={} but this run used {key}={} — \
                     re-pin or pass matching flags",
                    pinned.get(key).unwrap_or(&Value::Null),
                    record.get(key).unwrap_or(&Value::Null),
                ));
            }
        }
        let want = pinned
            .get("fingerprint")
            .and_then(Value::as_str)
            .unwrap_or("");
        if want != got {
            return Err(format!(
                "{shown}: fingerprint mismatch: pinned {want}, got {got} — behaviour diverged \
                 (or the host computes floats differently; see DESIGN.md §13)"
            ));
        }
        Ok(Pin::Verified)
    }
}

/// Scan `cfg`'s seeds (which must plant a bug) until the checker flags
/// one, then re-run that seed and require the same fingerprint and
/// violation text: the checker is live, and a printed seed is a complete
/// reproducer.
pub fn catch_bug(cfg: &SimtestConfig) -> Result<SeedOutcome, String> {
    for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        let first = explorer::run_seed(seed, cfg);
        if first.violations.is_empty() {
            continue;
        }
        let replay = explorer::run_seed(seed, cfg);
        if replay.fingerprint != first.fingerprint || replay.violations != first.violations {
            return Err(format!(
                "seed {seed} caught the bug but did not reproduce bitwise: \
                 fingerprint {:016x} vs {:016x}",
                first.fingerprint, replay.fingerprint
            ));
        }
        return Ok(first);
    }
    Err(format!(
        "injected bug was NOT caught in {} seed(s) — the checker is blind to it",
        cfg.seeds
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(fingerprint: u64) -> Sweep {
        Sweep {
            outcomes: Vec::new(),
            fingerprint,
            irreproducible: Vec::new(),
            params: vec![("seeds", 5), ("ops", 16)],
            wall: Duration::ZERO,
        }
    }

    /// A fresh path under the system temp dir, removed on drop.
    struct TempPin(std::path::PathBuf);

    impl TempPin {
        fn new(name: &str) -> TempPin {
            let dir = std::env::temp_dir().join(format!("fmml-pin-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(name);
            let _ = std::fs::remove_file(&path);
            TempPin(path)
        }
    }

    impl Drop for TempPin {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn a_missing_pin_is_written_then_verified() {
        let pin = TempPin::new("written.json");
        assert_eq!(sweep(0xabc).check_pin(&pin.0), Ok(Pin::Written));
        let raw = std::fs::read_to_string(&pin.0).unwrap();
        assert!(
            raw.contains("\"fingerprint\": \"0000000000000abc\""),
            "{raw}"
        );
        assert_eq!(sweep(0xabc).check_pin(&pin.0), Ok(Pin::Verified));
    }

    #[test]
    fn other_parameters_are_a_mismatch_not_drift() {
        let pin = TempPin::new("params.json");
        sweep(0xabc).check_pin(&pin.0).unwrap();
        let mut other = sweep(0xdef);
        other.params[1].1 = 17;
        let err = other.check_pin(&pin.0).unwrap_err();
        assert!(
            err.contains("pinned ops=16 but this run used ops=17"),
            "{err}"
        );
        assert!(!err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn a_different_fingerprint_fails_with_both_values() {
        let pin = TempPin::new("drift.json");
        sweep(0xabc).check_pin(&pin.0).unwrap();
        let err = sweep(0xdef).check_pin(&pin.0).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
        assert!(
            err.contains("pinned 0000000000000abc, got 0000000000000def"),
            "{err}"
        );
    }
}
