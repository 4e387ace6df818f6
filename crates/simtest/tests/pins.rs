//! The two pinned simulation fingerprints, at full size: 500 single-node
//! seeds and 150 cluster seeds (each run twice), checked against
//! `bench/SIMTEST_pinned.json` and `bench/SIMTEST_cluster_pinned.json`
//! through [`Sweep::check_pin`], the check `fmml simtest --pinned` runs.
//! Every seed must also be violation-free, and in cluster mode
//! reproduce on the second pass.
//!
//! The sweeps run under bin1. Fingerprints do not depend on the codec,
//! so the `#[ignore]`d twins run the same sweeps under JSON against the
//! same pins (`cargo test --release -p fmml-simtest -- --ignored`).
//! DESIGN.md §13 says what a mismatch means and how to re-pin.

use fmml_serve::WireCodec;
use fmml_simtest::{sweep, ClusterSimConfig, Pin, SimtestConfig, Sweep};
use std::path::PathBuf;

fn assert_pinned(sweep: &Sweep, file: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../bench")
        .join(file);
    assert!(path.exists(), "{} is missing", path.display());
    sweep.verdict().unwrap();
    assert_eq!(sweep.check_pin(&path), Ok(Pin::Verified));
}

fn single_node(wire: WireCodec) {
    let cfg = SimtestConfig {
        seeds: 500,
        wire,
        ..SimtestConfig::default()
    };
    assert_pinned(&sweep::single(&cfg), "SIMTEST_pinned.json");
}

fn cluster(wire: WireCodec) {
    let cfg = ClusterSimConfig {
        seeds: 150,
        wire,
        ..ClusterSimConfig::default()
    };
    assert_pinned(&sweep::cluster(&cfg), "SIMTEST_cluster_pinned.json");
}

#[test]
fn single_node_pin_holds_under_bin1() {
    single_node(WireCodec::Bin1);
}

#[test]
fn cluster_pin_holds_under_bin1() {
    cluster(WireCodec::Bin1);
}

#[test]
#[ignore = "release-only twin: the same sweep under JSON"]
fn single_node_pin_holds_under_json() {
    single_node(WireCodec::Json);
}

#[test]
#[ignore = "release-only twin: the same sweep under JSON"]
fn cluster_pin_holds_under_json() {
    cluster(WireCodec::Json);
}
