//! Knowledge-Augmented Loss (KAL, §3.1).
//!
//! The constraints of §3 are turned into differentiable penalty terms and
//! folded into the training loss with the augmented-Lagrangian method:
//!
//! ```text
//! L = EMD(truth, pred)
//!   + μ·Φ²  + λ_eq·Φ                       (equality: C1, C2)
//!   + λ_ineq·Ψ + μ·[λ_ineq>0 ∨ Ψ>0]·Ψ²     (inequality: C3)
//! ```
//!
//! with per-example multipliers updated after each step:
//! `λ_eq ← λ_eq + μ·Φ`, `λ_ineq ← max(0, λ_ineq + μ·Ψ)`.
//!
//! Differentiable forms:
//! * **Φ (C1 + C2)** — the in-graph interval max (subgradient through the
//!   argmax) minus the LANZ max, plus selected sample residuals. For the
//!   quadratic term we sum *squared* residuals (`Φ²` as written in the
//!   paper cancels violations of opposite signs; squaring per residual is
//!   the standard fix and is noted in DESIGN.md).
//! * **Ψ (C3)** — the non-differentiable `ite(len>0)` becomes
//!   `tanh(α·len)` ("1 when the length is greater than 0, and 0
//!   otherwise"), summed per interval, hinged against the sent count.
//!
//! The KAL terms are computed on the *normalized* prediction (same units
//! the model is trained in).

use fmml_nn::tape::{NodeId, Tape};
use fmml_nn::Tensor;
use fmml_telemetry::PortWindow;

/// KAL hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct KalConfig {
    /// Penalty weight μ.
    pub mu: f32,
    /// Learning rate of the multiplier updates (the paper uses μ itself;
    /// setting 0 degenerates KAL to a fixed-weight penalty — the
    /// ablation `fmml eval` reports in `results/ablations.out`).
    pub multiplier_lr: f32,
    /// Sharpness α of the tanh non-emptiness relaxation.
    pub tanh_scale: f32,
}

impl Default for KalConfig {
    fn default() -> Self {
        KalConfig {
            mu: 0.5,
            multiplier_lr: 0.5,
            tanh_scale: 50.0,
        }
    }
}

/// Graph nodes of the constraint terms for one (window, queue) example.
pub struct KalTerms {
    /// Linear equality residual Σ(max−m_max) + Σ(sample residuals).
    pub phi: NodeId,
    /// Sum of squared equality residuals.
    pub phi_sq: NodeId,
    /// Hinged inequality violation (≥ 0).
    pub psi: NodeId,
    /// Squared hinge.
    pub psi_sq: NodeId,
}

/// Per-example Lagrange multipliers.
#[derive(Debug, Clone)]
pub struct KalMultipliers {
    pub lam_eq: Vec<f32>,
    pub lam_ineq: Vec<f32>,
}

impl KalMultipliers {
    pub fn new(num_examples: usize) -> KalMultipliers {
        KalMultipliers {
            lam_eq: vec![0.0; num_examples],
            lam_ineq: vec![0.0; num_examples],
        }
    }

    /// The update rule of §3.1 after observing example `i`'s violations.
    pub fn update(&mut self, i: usize, mu: f32, phi: f32, psi: f32) {
        self.lam_eq[i] += mu * phi;
        self.lam_ineq[i] = (self.lam_ineq[i] + mu * psi).max(0.0);
    }
}

/// Build Φ/Ψ graph nodes for queue `q` of `w`, given the normalized
/// prediction (`pred`, 1-D of length `w.len()`).
pub fn build_terms(
    tape: &mut Tape,
    pred: NodeId,
    w: &PortWindow,
    q: usize,
    qlen_scale: f32,
    cfg: &KalConfig,
) -> KalTerms {
    let l = w.interval_len;
    let intervals = w.intervals();

    // ---- Φ: C1 (per-interval max) + C2 (samples) ----
    let mut residuals: Vec<NodeId> = Vec::with_capacity(2 * intervals);
    for k in 0..intervals {
        let seg = tape.slice1d(pred, k * l, l);
        let mx = tape.max_reduce(seg);
        let want = w.maxes[q][k] as f32 / qlen_scale;
        residuals.push(tape.scalar_add(mx, -want));
    }
    let positions = w.sample_positions();
    let sel = tape.select(pred, &positions);
    let wanted = Tensor::vector(
        (0..intervals)
            .map(|k| w.samples[q][k] as f32 / qlen_scale)
            .collect(),
    );
    let wanted = tape.constant(wanted);
    let sample_res = tape.sub(sel, wanted);
    // phi (linear): sum of all residuals.
    let mut phi = tape.sum(sample_res);
    for &r in &residuals {
        phi = tape.add(phi, r);
    }
    // phi_sq: sum of squared residuals (no cancellation).
    let sq_samples = tape.square(sample_res);
    let mut phi_sq = tape.sum(sq_samples);
    for &r in &residuals {
        let rs = tape.square(r);
        phi_sq = tape.add(phi_sq, rs);
    }

    // ---- Ψ: C3 with tanh-relaxed non-emptiness ----
    // NE_k/L = mean over the interval of tanh(α·pred); bound = min(sent,L)/L.
    let mut psi: Option<NodeId> = None;
    for k in 0..intervals {
        let seg = tape.slice1d(pred, k * l, l);
        let scaled = tape.scalar_mul(seg, cfg.tanh_scale);
        let soft = tape.tanh(scaled);
        let ne_frac = tape.mean(soft);
        let bound = (w.sent[k].min(l as u32) as f32) / l as f32;
        let shifted = tape.scalar_add(ne_frac, -bound);
        let hinge = tape.relu(shifted);
        psi = Some(match psi {
            Some(p) => tape.add(p, hinge),
            None => hinge,
        });
    }
    let psi = psi.expect("window has at least one interval");
    let psi_sq = tape.square(psi);

    KalTerms {
        phi,
        phi_sq,
        psi,
        psi_sq,
    }
}

/// Assemble the full KAL loss from a base loss and the constraint terms.
pub fn kal_loss(
    tape: &mut Tape,
    base: NodeId,
    terms: &KalTerms,
    lam_eq: f32,
    lam_ineq: f32,
    cfg: &KalConfig,
) -> NodeId {
    let mut loss = base;
    let p1 = tape.scalar_mul(terms.phi_sq, cfg.mu);
    loss = tape.add(loss, p1);
    let p2 = tape.scalar_mul(terms.phi, lam_eq);
    loss = tape.add(loss, p2);
    let p3 = tape.scalar_mul(terms.psi, lam_ineq);
    loss = tape.add(loss, p3);
    // The conditional quadratic term [λ_ineq>0 ∨ Ψ>0]·μ·Ψ²; the mask is
    // evaluated on the current values (piecewise-constant in the graph).
    let psi_val = tape.scalar_value(terms.psi);
    if lam_ineq > 0.0 || psi_val > 0.0 {
        let p4 = tape.scalar_mul(terms.psi_sq, cfg.mu);
        loss = tape.add(loss, p4);
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmml_nn::ParamStore;

    /// A tiny synthetic window: 1 queue, 2 intervals of 5.
    fn toy_window() -> PortWindow {
        PortWindow {
            port: 0,
            start_bin: 0,
            interval_len: 5,
            queue_ids: vec![0],
            truth: vec![vec![0.0, 4.0, 2.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]],
            samples: vec![vec![1, 0]],
            maxes: vec![vec![4, 0]],
            sent: vec![4, 0],
            dropped: vec![0, 0],
            received: vec![4, 0],
        }
    }

    #[test]
    fn satisfied_prediction_has_zero_terms() {
        let w = toy_window();
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        // Exactly the truth, normalized by 4.
        let pred = tape.constant(Tensor::vector(
            w.truth[0].iter().map(|&v| v / 4.0).collect(),
        ));
        let terms = build_terms(&mut tape, pred, &w, 0, 4.0, &KalConfig::default());
        assert!(tape.scalar_value(terms.phi).abs() < 1e-6);
        assert!(tape.scalar_value(terms.phi_sq).abs() < 1e-6);
        // NE = 4 nonzero steps in k0 (t1..t4), bound = min(4,5)/5; tanh(α·x)
        // saturates to ~1 for x ≥ 0.25 at α = 50, so Ψ ≈ 0.
        assert!(
            tape.scalar_value(terms.psi) < 0.05,
            "psi = {}",
            tape.scalar_value(terms.psi)
        );
    }

    #[test]
    fn max_undershoot_is_detected_by_phi() {
        let w = toy_window();
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        // Prediction that never reaches the max (4 -> 2).
        let pred = tape.constant(Tensor::vector(
            vec![0.0, 2.0, 2.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
                .into_iter()
                .map(|v| v / 4.0)
                .collect(),
        ));
        let terms = build_terms(&mut tape, pred, &w, 0, 4.0, &KalConfig::default());
        // Residual (2-4)/4 = -0.5 on the max.
        assert!((tape.scalar_value(terms.phi) + 0.5).abs() < 1e-6);
        assert!(tape.scalar_value(terms.phi_sq) > 0.2);
    }

    #[test]
    fn c3_violation_is_detected_by_psi() {
        let mut w = toy_window();
        w.sent = vec![1, 0]; // only one nonempty step allowed per interval
        let store = ParamStore::new();
        let mut tape = Tape::new(&store);
        let pred = tape.constant(Tensor::vector(
            w.truth[0].iter().map(|&v| v / 4.0).collect(),
        ));
        let terms = build_terms(&mut tape, pred, &w, 0, 4.0, &KalConfig::default());
        // 4 nonempty steps vs bound 1/5: Ψ ≈ 4/5 − 1/5.
        let psi = tape.scalar_value(terms.psi);
        assert!(psi > 0.4, "psi = {psi}");
    }

    #[test]
    fn kal_gradients_flow_into_prediction() {
        // Verify the constraint terms backpropagate (finite-difference on
        // one prediction element through Φ²).
        let w = toy_window();
        let store = ParamStore::new();
        let mut s2 = ParamStore::new();
        let p = s2.add("pred", Tensor::vector(vec![0.1; 10]));
        let mut tape = Tape::new(&s2);
        let pred = tape.param(p);
        let terms = build_terms(&mut tape, pred, &w, 0, 4.0, &KalConfig::default());
        let zero = tape.scalar(0.0);
        let loss = kal_loss(&mut tape, zero, &terms, 0.3, 0.2, &KalConfig::default());
        let g = tape.backward(loss);
        let gp = g.by_param[p].as_ref().expect("grad exists");
        assert!(gp.norm() > 0.0, "no gradient through KAL terms");
        let _ = store;
    }

    #[test]
    fn multiplier_updates_follow_the_paper() {
        let mut m = KalMultipliers::new(2);
        m.update(0, 0.5, 0.4, 0.2);
        assert!((m.lam_eq[0] - 0.2).abs() < 1e-6);
        assert!((m.lam_ineq[0] - 0.1).abs() < 1e-6);
        // Negative phi decreases lam_eq; lam_ineq is clamped at zero.
        m.update(0, 0.5, -0.8, -1.0);
        assert!((m.lam_eq[0] + 0.2).abs() < 1e-6);
        assert_eq!(m.lam_ineq[0], 0.0);
        // Untouched example stays zero.
        assert_eq!(m.lam_eq[1], 0.0);
    }
}
