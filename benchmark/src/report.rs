//! The metric tables (name, unit) and the result a run prints.
//!
//! A [`Report`] refuses names that are not in the table of its mode and
//! refuses to print until every name of that table has a value, so what
//! a run emits is exactly what `BENCHMARK.json` declares.

use std::io::Write;

/// End-to-end metrics: what `--trace 0` prints, on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("capacity_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
];

/// Per-layer metrics: what `--trace 1` prints, on every workload. The
/// crate a number belongs to is the name's prefix.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("netsim.sim_ms_per_s", "sim-ms/s"),
    ("netsim.gen_s", "s"),
    ("telemetry.windows_per_s", "1/s"),
    ("telemetry.sanitize_us", "us"),
    ("core.train_epoch_ms", "ms"),
    ("core.train_kal_epoch_ms", "ms"),
    ("core.train_s", "s"),
    ("nn.gemm_gflops", "GFLOP/s"),
    ("nn.gemm_fmas_per_forward", "count"),
    ("nn.gemm_par_shards", "count"),
    ("nn.tape_pool_hit_share", "share"),
    ("core.forward_us", "us"),
    ("core.prepare_us", "us"),
    ("fm.fast_interval_us", "us"),
    ("fm.ladder_us_per_op", "us"),
    ("fm.check_us", "us"),
    ("fm.cache_hit_share", "share"),
    ("fm.raw_violation_share", "share"),
    ("fm.degraded_share", "share"),
    ("fm.smt_interval_ms_p50", "ms"),
    ("fm.smt_interval_ms_p90", "ms"),
    ("fm.jobs_speedup", "ratio"),
    ("smt.decisions_per_op", "count"),
    ("smt.conflicts_per_op", "count"),
    ("smt.pivots_per_op", "count"),
    ("smt.iterations_per_op", "count"),
    ("smt.conflicts_per_s", "1/s"),
    ("smt.pivots_per_s", "1/s"),
    ("smt.packet_model_ms", "ms"),
    ("serve.bin1.interval_dec_ns", "ns"),
    ("serve.bin1.imputed_enc_ns", "ns"),
    ("serve.bin1.imputed_bytes", "bytes"),
    ("serve.json.interval_dec_ns", "ns"),
    ("serve.json.imputed_enc_ns", "ns"),
    ("serve.json.imputed_bytes", "bytes"),
    ("serve.rtt_idle_us", "us"),
    ("serve.batch_size_mean", "count"),
    ("serve.busy_share", "share"),
    ("serve.late_share", "share"),
    ("serve.handshake_ms", "ms"),
    ("serve.spawn_ms", "ms"),
    ("serve.lat_p99_ms", "ms"),
    ("serve.cpu_us_per_op", "us"),
    ("serve.attributed_us_per_op", "us"),
    ("serve.unattributed_us_per_op", "us"),
    ("serve.forward_share", "share"),
    ("cluster.hop_us", "us"),
    ("cluster.capacity_ratio", "ratio"),
    ("cluster.ring_assign_ns", "ns"),
    ("cluster.backend_share_max", "share"),
    ("cluster.migrations", "count"),
    ("obs.dump_ms", "ms"),
    ("obs.trace_overhead_share", "share"),
    ("bench.gen_late_p99_us", "us"),
    ("bench.gen_cpu_share", "share"),
    ("bench.round_spread_share", "share"),
];

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: Vec<Option<f64>>,
    /// Context lines printed above the table (config, fingerprints).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, trace: bool) -> Report {
        let table = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        Report {
            workload,
            seed,
            trace,
            correct: false,
            attempted: 0,
            failed: 0,
            values: vec![None; table.len()],
            notes: Vec::new(),
        }
    }

    fn table(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table()
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared metric of this mode"));
        assert!(self.values[i].is_none(), "{name} set twice");
        assert!(value.is_finite(), "{name} is not finite");
        self.values[i] = Some(value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result object the contract asks for, on one line.
    pub fn result_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, ((name, unit), value)) in self.table().iter().zip(&self.values).enumerate() {
            let value = value.unwrap_or_else(|| panic!("{name} was never measured"));
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        s.push_str("}}");
        s
    }

    /// Human-readable table, then the result object as the last line.
    pub fn print(&self) {
        let out = std::io::stdout();
        let mut out = out.lock();
        let _ = writeln!(
            out,
            "# fmml-benchmark workload={} seed={} trace={}",
            self.workload, self.seed, self.trace as u8
        );
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for ((name, unit), value) in self.table().iter().zip(&self.values) {
            let _ = writeln!(out, "{name:<34} {:>16.4} {unit}", value.unwrap_or(f64::NAN));
        }
        let _ = writeln!(
            out,
            "# correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        let _ = writeln!(out, "{}", self.result_json());
    }

    /// Append the run to a set file (one JSON object per line) for
    /// `fmml-benchmark compare`.
    pub fn record(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(
            f,
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"result\": {}}}",
            self.workload,
            self.seed,
            self.trace as u8,
            self.result_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{unit}");
            assert!(seen.insert(name), "{name} declared twice");
        }
    }

    #[test]
    fn result_json_lists_every_metric_in_table_order() {
        let mut r = Report::new("serve-paper", 1, false);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        r.correct = true;
        r.attempted = 7;
        let j = r.result_json();
        assert!(j.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(j.ends_with("\"lat_p90_ms\": {\"value\": 5.5, \"unit\": \"ms\"}}}"));
    }
}
