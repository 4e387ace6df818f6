//! `fmml-benchmark compare <setA> <setB>`: the repeatability and
//! regression table. A set is a file written by `--record` (one run per
//! line); bounds and directions come from `BENCHMARK.json`.

use crate::stats::Summary;
use serde_json::Value;
use std::collections::BTreeMap;

const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds() -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string(BENCHMARK_JSON).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let list = v["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(Bound {
                name: m["name"].as_str().ok_or("metric without name")?.to_string(),
                unit: m["unit"].as_str().ok_or("metric without unit")?.to_string(),
                lower_is_better: m["better"].as_str() == Some("lower"),
                bound: m["bound"].as_f64().ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// workload → metric → values, from the untraced runs of a set file.
fn load(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if v["trace"].as_u64() != Some(0) {
            continue;
        }
        let workload = v["workload"]
            .as_str()
            .ok_or(format!("{path}:{}: no workload", n + 1))?;
        let metrics = v["result"]["metrics"]
            .as_object()
            .ok_or(format!("{path}:{}: no metrics", n + 1))?;
        for (name, m) in metrics {
            let value = m["value"]
                .as_f64()
                .ok_or(format!("{path}:{}: {name} has no value", n + 1))?;
            out.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// The bounds ISSUE 14 specified. `BENCHMARK.json` carries wider ones
/// (README, "Why the bounds are not the issue's"); every row is judged at
/// both, so a table says honestly what it cannot resolve at the tighter.
const ISSUE_BOUNDS: [(&str, f64); 5] = [
    ("setup_s", 0.10),
    ("capacity_per_s", 0.06),
    ("cpu_ms_per_op", 0.05),
    ("lat_p50_ms", 0.08),
    ("lat_p90_ms", 0.10),
];

/// `regressed` when B's median is worse than A's by more than `bound`,
/// `unresolved` when either set's spread is wider than it, else `ok`.
fn verdict(worse: f64, spread: f64, bound: f64) -> &'static str {
    if worse > bound {
        "regressed"
    } else if spread > bound {
        "unresolved"
    } else {
        "ok"
    }
}

/// Print the table; `Ok(true)` when no row regressed at the bounds of
/// `BENCHMARK.json`.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let bounds = bounds()?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "| workload | metric | unit | A median [q1, q3] (n) | A spread | B median [q1, q3] (n) | B spread | B worse by | bound | verdict | issue's bound | verdict at it |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    let mut clean = true;
    for (workload, metrics_a) in &a {
        for bound in &bounds {
            let (Some(va), Some(vb)) = (
                metrics_a.get(&bound.name),
                b.get(workload).and_then(|m| m.get(&bound.name)),
            ) else {
                continue;
            };
            let (sa, sb) = (Summary::of(va), Summary::of(vb));
            let change = (sb.median - sa.median) / sa.median;
            let worse = if bound.lower_is_better {
                change
            } else {
                -change
            };
            let spread = sa.spread_share().max(sb.spread_share());
            let gate = verdict(worse, spread, bound.bound);
            clean &= gate != "regressed";
            let issue = ISSUE_BOUNDS
                .iter()
                .find(|(name, _)| *name == bound.name)
                .map_or(bound.bound, |(_, b)| *b);
            println!(
                "| {workload} | {} | {} | {:.4} [{:.4}, {:.4}] ({}) | {:.1}% | {:.4} [{:.4}, {:.4}] ({}) | {:.1}% | {:+.2}% | {:.0}% | {gate} | {:.0}% | {} |",
                bound.name,
                bound.unit,
                sa.median,
                sa.q1,
                sa.q3,
                va.len(),
                sa.spread_share() * 100.0,
                sb.median,
                sb.q1,
                sb.q3,
                vb.len(),
                sb.spread_share() * 100.0,
                worse * 100.0,
                bound.bound * 100.0,
                issue * 100.0,
                verdict(worse, spread, issue),
            );
        }
    }
    Ok(clean)
}
