//! The transformer imputation model: feature encoding and inference.
//!
//! Per queue, each fine step becomes a feature vector built purely from
//! what the operator can see (Fig. 3's `Ts`): the interval-broadcast
//! periodic sample, LANZ max (own and sibling queue), SNMP counters of
//! the port, a sample-position indicator, and the phase within the
//! interval. The transformer ingests the `[T, F]` matrix and emits one
//! (normalized) queue-length estimate per step. Inference runs a port's
//! queues as one forward, their matrices stacked as windows.

use crate::imputer::Imputer;
use fmml_nn::{NodeId, ParamStore, Tape, TransformerConfig, TransformerEncoder};
use fmml_telemetry::PortWindow;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// On-disk model format (JSON).
#[derive(Serialize, Deserialize)]
struct Checkpoint {
    store: ParamStore,
    cfg: TransformerConfig,
    qlen_scale: f32,
    count_scale: f32,
    label: String,
}

/// Number of input features per fine step.
pub const NUM_FEATURES: usize = 8;

/// Normalization scales shared by training and inference.
#[derive(Debug, Clone, Copy)]
pub struct Scales {
    /// Queue lengths are divided by this (typically the buffer size).
    pub qlen: f32,
    /// Packet counts are divided by this (one interval at line rate).
    pub count: f32,
}

/// Append the `[T, NUM_FEATURES]` input for queue `q` of a window,
/// row-major, to `data`.
fn encode_features(w: &PortWindow, q: usize, scales: Scales, data: &mut Vec<f32>) {
    let l = w.interval_len;
    let nq = w.num_queues();
    for t in 0..w.len() {
        let k = t / l;
        let own_sample = w.samples[q][k] as f32 / scales.qlen;
        let own_max = w.maxes[q][k] as f32 / scales.qlen;
        // Mean of sibling queues' maxima: the shared-buffer coupling signal.
        let sibling_max = if nq > 1 {
            (0..nq)
                .filter(|&o| o != q)
                .map(|o| w.maxes[o][k] as f32)
                .sum::<f32>()
                / (nq - 1) as f32
                / scales.qlen
        } else {
            0.0
        };
        let sent = w.sent[k] as f32 / scales.count;
        let dropped = w.dropped[k] as f32 / scales.count;
        let received = w.received[k] as f32 / scales.count;
        let is_sample = if (t + 1) % l == 0 { 1.0 } else { 0.0 };
        let phase = (t % l) as f32 / l as f32;
        data.extend_from_slice(&[
            own_sample,
            own_max,
            sibling_max,
            sent,
            dropped,
            received,
            is_sample,
            phase,
        ]);
    }
}

/// A trained transformer imputation model.
#[derive(Debug, Clone)]
pub struct TransformerImputer {
    pub store: ParamStore,
    pub model: TransformerEncoder,
    pub scales: Scales,
    /// Display name (set by training: "Transformer" or "Transformer+KAL").
    pub label: String,
}

impl TransformerImputer {
    /// Fresh (untrained) model with the paper's architecture.
    pub fn new(seed: u64, scales: Scales) -> TransformerImputer {
        let mut store = ParamStore::new();
        let cfg = TransformerConfig::paper_default(NUM_FEATURES);
        let model = TransformerEncoder::new(&mut store, seed, cfg);
        TransformerImputer {
            store,
            model,
            scales,
            label: "Transformer".into(),
        }
    }

    /// Serialize the model (weights + scales + label) to JSON.
    pub fn save_json(&self) -> String {
        let ckpt = Checkpoint {
            store: self.store.clone(),
            cfg: self.model.cfg.clone(),
            qlen_scale: self.scales.qlen,
            count_scale: self.scales.count,
            label: self.label.clone(),
        };
        serde_json::to_string(&ckpt).expect("checkpoint serializes")
    }

    /// Restore a model from [`TransformerImputer::save_json`] output.
    ///
    /// The architecture is rebuilt from the stored config; weights are
    /// validated against it (a mismatched checkpoint is an error, not a
    /// silent misload).
    pub fn load_json(json: &str) -> Result<TransformerImputer, String> {
        let ckpt: Checkpoint = serde_json::from_str(json).map_err(|e| e.to_string())?;
        // Rebuild the architecture to obtain layer wiring, then swap in
        // the checkpointed weights.
        let mut fresh = ParamStore::new();
        let model = TransformerEncoder::new(&mut fresh, 0, ckpt.cfg);
        if fresh.len() != ckpt.store.len() {
            return Err(format!(
                "checkpoint has {} parameters, architecture needs {}",
                ckpt.store.len(),
                fresh.len()
            ));
        }
        for i in 0..fresh.len() {
            if fresh.value(i).shape != ckpt.store.value(i).shape {
                return Err(format!(
                    "parameter {i} ({}) shape mismatch: {:?} vs {:?}",
                    fresh.name(i),
                    ckpt.store.value(i).shape,
                    fresh.value(i).shape
                ));
            }
        }
        Ok(TransformerImputer {
            store: ckpt.store,
            model,
            scales: Scales {
                qlen: ckpt.qlen_scale,
                count: ckpt.count_scale,
            },
            label: ckpt.label,
        })
    }

    /// Impute one queue of a window (normalized output clamped at 0 and
    /// rescaled to packets).
    pub fn impute_queue(&self, w: &PortWindow, q: usize) -> Vec<f32> {
        self.impute_queue_from(w, q, 0)
    }

    /// Steps `from..` of [`impute_queue`](Self::impute_queue), bit for
    /// bit, without the last encoder block's work on the rows before
    /// them.
    pub fn impute_queue_from(&self, w: &PortWindow, q: usize, from: usize) -> Vec<f32> {
        self.forward_queues(w, q..q + 1, from, |series| self.rescale(series))
    }

    /// [`Imputer::impute`] from step `from` on: `[queues][len − from]`,
    /// every queue in one forward pass, each bit for bit what
    /// [`impute_queue_from`](Self::impute_queue_from) gives it alone.
    pub fn impute_from(&self, w: &PortWindow, from: usize) -> Vec<Vec<f32>> {
        let (nq, n) = (w.num_queues(), w.len() - from);
        self.forward_queues(w, 0..nq, from, |series| {
            (0..nq)
                .map(|q| self.rescale(&series[q * n..(q + 1) * n]))
                .collect()
        })
    }

    /// One forward of `queues`' feature matrices stacked as windows;
    /// `f` gets the normalized series, steps `from..` of each queue,
    /// queue after queue.
    fn forward_queues<R>(
        &self,
        w: &PortWindow,
        queues: Range<usize>,
        from: usize,
        f: impl FnOnce(&[f32]) -> R,
    ) -> R {
        let mut tape = Tape::new(&self.store);
        let windows = queues.len();
        let x = self.features(&mut tape, w, queues);
        let pred = self.model.forward_series(&mut tape, x, from, windows);
        f(&tape.value(pred).data)
    }

    /// The `[queues·T, NUM_FEATURES]` input of `queues`, queue after
    /// queue, as a constant leaf in the tape's pooled storage.
    pub(crate) fn features(&self, tape: &mut Tape, w: &PortWindow, queues: Range<usize>) -> NodeId {
        let shape = [queues.len() * w.len(), NUM_FEATURES];
        tape.constant_with(&shape, |data| {
            for q in queues {
                encode_features(w, q, self.scales, data);
            }
        })
    }

    /// Normalized outputs clamped at 0 and rescaled to packets.
    fn rescale(&self, series: &[f32]) -> Vec<f32> {
        series
            .iter()
            .map(|&v| v.max(0.0) * self.scales.qlen)
            .collect()
    }
}

impl Imputer for TransformerImputer {
    fn impute(&self, w: &PortWindow) -> Vec<Vec<f32>> {
        self.impute_from(w, 0)
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmml_netsim::traffic::TrafficConfig;
    use fmml_netsim::{SimConfig, Simulation};
    use fmml_telemetry::windows_from_trace;

    fn window() -> PortWindow {
        let cfg = SimConfig::small();
        let gt = Simulation::new(
            cfg.clone(),
            TrafficConfig::websearch_incast(cfg.num_ports, 0.6),
            13,
        )
        .run_ms(300);
        windows_from_trace(&gt, 300, 50, 300)
            .into_iter()
            .find(|w| w.has_activity())
            .unwrap()
    }

    fn scales() -> Scales {
        Scales {
            qlen: 260.0,
            count: 4150.0,
        }
    }

    #[test]
    fn features_have_expected_shape_and_range() {
        let w = window();
        let m = TransformerImputer::new(3, scales());
        let mut tape = Tape::new(&m.store);
        let x = m.features(&mut tape, &w, 0..1);
        let x = tape.value(x);
        assert_eq!(x.shape, vec![300, NUM_FEATURES]);
        // Normalized features should be small.
        assert!(
            x.data.iter().all(|&v| (0.0..=2.0).contains(&v)),
            "feature out of range"
        );
        // Sample indicator fires exactly once per interval.
        let ind_sum: f32 = (0..300).map(|t| x.at2(t, 6)).sum();
        assert_eq!(ind_sum, 6.0);
    }

    #[test]
    fn untrained_model_produces_nonnegative_output() {
        let w = window();
        let m = TransformerImputer::new(3, scales());
        let out = m.impute(&w);
        assert_eq!(out.len(), w.num_queues());
        for q in &out {
            assert_eq!(q.len(), 300);
            assert!(q.iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_outputs() {
        let w = window();
        let m = TransformerImputer::new(3, scales());
        let json = m.save_json();
        let m2 = TransformerImputer::load_json(&json).expect("valid checkpoint");
        assert_eq!(m.impute(&w), m2.impute(&w));
        assert_eq!(m2.label, m.label);
    }

    #[test]
    fn corrupted_checkpoint_is_rejected() {
        assert!(TransformerImputer::load_json("{not json").is_err());
        // Valid JSON, wrong parameter count.
        let m = TransformerImputer::new(3, scales());
        let json = m.save_json();
        let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let params = v["store"]["values"].as_array_mut().unwrap();
        params.pop();
        params.pop();
        let truncated = serde_json::to_string(&v).unwrap();
        assert!(TransformerImputer::load_json(&truncated)
            .unwrap_err()
            .contains("parameters"));
    }

    #[test]
    fn tail_is_rows_of_the_whole_forward_bit_for_bit() {
        // The last encoder block computes rows `from..` only; every
        // op past its `ln1` is row-local, so the tail must carry the bits
        // of the same rows of the whole forward — on and off interval
        // (50) and GEMM-tile boundaries, in both kernel modes.
        use fmml_nn::kernel::{with_mode, KernelMode};
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        let check = |m: &TransformerImputer, w: &PortWindow, froms: &[usize]| -> bool {
            let mut live = false;
            for q in 0..w.num_queues() {
                let whole = m.impute_queue(w, q);
                live |= whole.iter().any(|&v| v != 0.0);
                for &from in froms {
                    let tail = m.impute_queue_from(w, q, from);
                    assert!(tail.iter().all(|&v| v >= 0.0), "clamped at 0");
                    assert_eq!(bits(&tail), bits(&whole[from..]), "q={q} from={from}");
                }
            }
            live
        };
        let paper = window();
        let cfg = SimConfig::small();
        let gt = Simulation::new(
            cfg.clone(),
            TrafficConfig::websearch_incast(cfg.num_ports, 0.6),
            19,
        )
        .run_ms(400);
        let wire: Vec<PortWindow> = windows_from_trace(&gt, 10, 5, 10)
            .into_iter()
            .filter(|w| w.has_activity())
            .take(20)
            .collect();
        assert_eq!(wire.len(), 20);
        for mode in [KernelMode::default(), KernelMode::Reference] {
            with_mode(mode, || {
                // Seeds whose untrained head is not negative (clamped:
                // all zero) throughout — equal zeros would prove nothing.
                for seed in [2, 3, 4] {
                    let m = TransformerImputer::new(seed, scales());
                    assert!(
                        check(&m, &paper, &[0, 1, 7, 50, 250, 293, 299]),
                        "seed {seed}: paper-geometry output is all zero"
                    );
                    let live = wire.iter().filter(|w| check(&m, w, &[0, 5, 9])).count();
                    assert!(live > 0, "seed {seed}: wire-geometry outputs are all zero");
                }
            })
        }
    }

    #[test]
    fn a_port_forward_is_each_queue_alone_bit_for_bit() {
        // One forward runs a port's queues as stacked windows; attention
        // keeps to its window and every other op to its row, so each
        // queue's series must carry the bits of its own forward.
        use fmml_nn::kernel::{with_mode, KernelMode};
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        let cfg = SimConfig::small();
        let traffic = TrafficConfig::websearch_incast(cfg.num_ports, 0.6);
        let gt = Simulation::new(cfg, traffic, 19).run_ms(400);
        let mut windows: Vec<(PortWindow, usize)> = windows_from_trace(&gt, 10, 5, 10)
            .into_iter()
            .filter(|w| w.has_activity())
            .take(8)
            .map(|w| (w, 5))
            .collect();
        windows.push((window(), 250));
        for mode in [KernelMode::default(), KernelMode::Reference] {
            with_mode(mode, || {
                let m = TransformerImputer::new(3, scales());
                let mut live = false;
                for (w, newest) in &windows {
                    assert_eq!(w.num_queues(), 2);
                    for from in [0, *newest] {
                        let port = m.impute_from(w, from);
                        assert_eq!(port.len(), 2);
                        for (q, series) in port.iter().enumerate() {
                            live |= series.iter().any(|&v| v != 0.0);
                            let alone = m.impute_queue_from(w, q, from);
                            assert_eq!(bits(series), bits(&alone), "q={q} from={from}");
                        }
                    }
                }
                assert!(live, "all outputs are zero");
            })
        }
    }

    #[test]
    fn inference_is_deterministic() {
        let w = window();
        let m = TransformerImputer::new(3, scales());
        assert_eq!(m.impute(&w), m.impute(&w));
    }
}
