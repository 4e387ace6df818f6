//! Training loop for the transformer imputer (with or without KAL).
//!
//! Examples are (window, queue) pairs. Each batch is processed with data
//! parallelism: every example builds its own autograd tape against the
//! shared parameter store, gradients are reduced, clipped, and applied by
//! Adam; KAL multipliers are updated per example from the observed
//! Φ/Ψ violations.

use crate::kal::{self, KalConfig, KalMultipliers};
use crate::transformer_imputer::{Scales, TransformerImputer};
use fmml_nn::{loss, Adam, Gradients, Tape, Tensor};
use fmml_obs::{log_event, trace, Counter, FloatGauge, Histogram, Unit};
use fmml_telemetry::PortWindow;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use std::sync::{Mutex, PoisonError};

/// Wall-clock time per training epoch.
static EPOCH_MS: Histogram = Histogram::new("train.epoch_ms", Unit::Millis);
/// Epochs completed across all `train` calls.
static EPOCHS: Counter = Counter::new("train.epochs");
/// Forward/backward passes executed (one per example per epoch).
static EXAMPLES: Counter = Counter::new("train.examples");
/// Mean reconstruction(+KAL) loss of the most recent epoch.
static LOSS: FloatGauge = FloatGauge::new("train.loss");
/// Pre-clip global gradient norm, averaged over the last epoch's batches.
static GRAD_NORM: FloatGauge = FloatGauge::new("train.grad_norm");
/// Mean KAL penalty (|Φ| + Ψ) of the most recent epoch; 0 without KAL.
static KAL_PENALTY: FloatGauge = FloatGauge::new("train.kal_penalty");
/// Example contributions discarded because loss/grad went non-finite.
static NONFINITE_SKIPPED: Counter = Counter::new("train.nonfinite_skipped");
/// Epochs rolled back to their checkpoint after a non-finite guard fired.
static ROLLBACKS: Counter = Counter::new("train.rollbacks");
/// [`EpochStats::nonzero_share`] of the most recent epoch.
static OUTPUT_NONZERO_SHARE: FloatGauge = FloatGauge::new("train.output_nonzero_share");

/// Base reconstruction loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// 1-D Earth Mover's Distance (the paper's choice).
    Emd,
    /// Mean squared error (the ablation baseline).
    Mse,
}

/// Global-norm bound on a batch's gradient (norms run ≈ 100): at
/// `--paper` it lowers +KAL's error on 7 of Table 1's 9 rows.
const CLIP_NORM: f32 = 5.0;

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub epochs: usize,
    pub lr: f32,
    pub batch_size: usize,
    pub loss: LossKind,
    /// `Some` enables the Knowledge-Augmented Loss.
    pub kal: Option<KalConfig>,
    pub seed: u64,
    /// Run batches in parallel with rayon.
    pub parallel: bool,
    /// Chaos hook: poison the first example of this epoch with a NaN loss
    /// so the non-finite guard + rollback path is exercised
    /// deterministically (used by `fmml fault-run` and tests).
    pub nan_loss_epoch: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            lr: 3e-3,
            batch_size: 16,
            loss: LossKind::Emd,
            kal: None,
            seed: 1,
            parallel: true,
            nan_loss_epoch: None,
        }
    }
}

/// Per-epoch statistics (returned for reporting and tests).
#[derive(Debug, Clone)]
pub struct EpochStats {
    pub mean_loss: f32,
    pub mean_phi_abs: f32,
    pub mean_psi: f32,
    /// Share of predicted steps `> 0` over the epoch's examples: the
    /// share the inference clamp at 0 leaves positive. At 0 the model
    /// imputes nothing (the epoch logs `train.dead_output`).
    pub nonzero_share: f32,
    /// The epoch hit a non-finite loss or gradient and its parameter
    /// updates were discarded (store restored from the epoch checkpoint).
    pub rolled_back: bool,
}

/// One position of a batch: the example it runs and what that example's
/// forward/backward pass left. The trainer keeps `batch_size` of these
/// for the whole run, so the gradient buffers are allocated once.
struct Slot {
    example: usize,
    grads: Gradients,
    loss: f32,
    phi: f32,
    psi: f32,
    /// Predicted steps, and how many of them are `> 0`.
    steps: usize,
    nonzero: usize,
}

impl Slot {
    fn new(params: usize) -> Slot {
        Slot {
            example: 0,
            grads: Gradients::new(params),
            loss: 0.0,
            phi: 0.0,
            psi: 0.0,
            steps: 0,
            nonzero: 0,
        }
    }
}

/// Train a freshly-initialized transformer imputer on `windows`. The
/// head starts at zero, so training starts at the all-zero predictor.
pub fn train(
    windows: &[PortWindow],
    scales: Scales,
    cfg: &TrainConfig,
) -> (TransformerImputer, Vec<EpochStats>) {
    let mut imputer = TransformerImputer::new(cfg.seed, scales);
    let head = imputer.model.head.w;
    imputer.store.value_mut(head).data.fill(0.0);
    imputer.label = match cfg.kal {
        Some(_) => "Transformer+KAL".into(),
        None => "Transformer".into(),
    };
    let stats = train_from(&mut imputer, windows, cfg);
    (imputer, stats)
}

/// Train (or continue training — `fmml train --resume`) an existing
/// imputer in place.
///
/// The loop is guarded against numeric blow-ups: any example whose loss,
/// Φ, or Ψ is non-finite is dropped from the batch reduction, and a batch
/// whose reduced gradient norm is non-finite is skipped entirely. If any
/// guard fired during an epoch, the epoch is *rolled back* — the
/// parameter store is restored from the checkpoint taken at epoch start,
/// the optimizer state is reset, and the learning rate is halved for the
/// remaining epochs. Training therefore always terminates with finite
/// parameters, even under poisoned inputs.
pub fn train_from(
    imputer: &mut TransformerImputer,
    windows: &[PortWindow],
    cfg: &TrainConfig,
) -> Vec<EpochStats> {
    assert!(!windows.is_empty(), "empty training set");
    let mut lr = cfg.lr;
    let mut adam = Adam::new(&imputer.store, lr);

    // Examples: (window index, queue index).
    let examples: Vec<(usize, usize)> = windows
        .iter()
        .enumerate()
        .flat_map(|(wi, w)| (0..w.num_queues()).map(move |q| (wi, q)))
        .collect();
    let mut multipliers = KalMultipliers::new(examples.len());
    let mut order: Vec<usize> = (0..examples.len()).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7EA1);
    let mut stats = Vec::with_capacity(cfg.epochs);
    let params = imputer.store.len();
    let mut slots: Vec<Mutex<Slot>> = (0..cfg.batch_size.min(examples.len()))
        .map(|_| Mutex::new(Slot::new(params)))
        .collect();
    let mut total = Gradients::new(params);

    for epoch in 0..cfg.epochs {
        let span = EPOCH_MS.start_span();
        let _epoch_span = trace::span("train.epoch");
        // Checkpoint for rollback: parameters as of the epoch start.
        let checkpoint = imputer.store.clone();
        let mut poisoned = false;
        let mut skipped = 0u32;
        let mut poison_next = cfg.nan_loss_epoch == Some(epoch);
        // Fisher-Yates shuffle (deterministic via seed).
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut ep_loss = 0.0f64;
        let mut ep_phi = 0.0f64;
        let mut ep_psi = 0.0f64;
        let (mut ep_steps, mut ep_nonzero) = (0usize, 0usize);
        let mut ep_grad_norm = 0.0f64;
        let mut num_batches = 0u32;
        let mut used_examples = 0usize;
        for batch in order.chunks(cfg.batch_size) {
            let slots = &mut slots[..batch.len()];
            for (slot, &ei) in slots.iter_mut().zip(batch) {
                slot_mut(slot).example = ei;
            }
            let run = |slot: &mut Slot| {
                let ei = slot.example;
                let (wi, q) = examples[ei];
                forward_backward(
                    imputer,
                    &windows[wi],
                    q,
                    cfg,
                    multipliers.lam_eq[ei],
                    multipliers.lam_ineq[ei],
                    slot,
                );
            };
            if cfg.parallel {
                // The rayon pool's threads do not inherit this thread's
                // trace context: hand it over so per-example spans land
                // in the epoch's trace.
                let ctx = trace::current_context();
                slots.par_iter().for_each(|slot| {
                    let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
                    trace::with_context(ctx, || run(&mut slot));
                });
            } else {
                slots.iter_mut().for_each(|slot| run(slot_mut(slot)));
            }
            // Chaos hook: corrupt the first example of the target epoch.
            if poison_next {
                slot_mut(&mut slots[0]).loss = f32::NAN;
                poison_next = false;
            }
            // Reduce gradients in batch order; update multipliers.
            // Non-finite example contributions are dropped (guard #1).
            total.clear();
            let mut used_in_batch = 0usize;
            for slot in slots.iter_mut() {
                let r = slot_mut(slot);
                if !(r.loss.is_finite() && r.phi.is_finite() && r.psi.is_finite()) {
                    NONFINITE_SKIPPED.inc();
                    skipped += 1;
                    poisoned = true;
                    continue;
                }
                total.merge(&r.grads);
                if let Some(k) = &cfg.kal {
                    multipliers.update(r.example, k.multiplier_lr, r.phi, r.psi);
                }
                ep_loss += r.loss as f64;
                ep_phi += r.phi.abs() as f64;
                ep_psi += r.psi as f64;
                ep_steps += r.steps;
                ep_nonzero += r.nonzero;
                used_in_batch += 1;
            }
            if used_in_batch == 0 {
                continue;
            }
            total.scale(1.0 / used_in_batch as f32);
            let grad_norm = total.clip_global_norm(CLIP_NORM);
            // Guard #2: a non-finite reduced gradient poisons the whole
            // batch — skip the optimizer step.
            if !grad_norm.is_finite() {
                NONFINITE_SKIPPED.inc();
                skipped += used_in_batch as u32;
                poisoned = true;
                continue;
            }
            ep_grad_norm += grad_norm as f64;
            num_batches += 1;
            used_examples += used_in_batch;
            adam.step(&mut imputer.store, &total);
        }
        if poisoned {
            // Roll back: restore the epoch-start parameters, reset the
            // optimizer moments, and halve the learning rate.
            imputer.store = checkpoint;
            lr *= 0.5;
            adam = Adam::new(&imputer.store, lr);
            ROLLBACKS.inc();
            log_event!(
                "train.rollback",
                "epoch" = epoch,
                "skipped_examples" = skipped,
                "lr" = lr,
            );
        }
        let n = used_examples.max(1) as f64;
        let ep = EpochStats {
            mean_loss: (ep_loss / n) as f32,
            mean_phi_abs: (ep_phi / n) as f32,
            mean_psi: (ep_psi / n) as f32,
            nonzero_share: ep_nonzero as f32 / ep_steps.max(1) as f32,
            rolled_back: poisoned,
        };
        let grad_norm = ep_grad_norm / num_batches.max(1) as f64;
        let kal_penalty = (ep.mean_phi_abs + ep.mean_psi) as f64;
        let elapsed = span.finish();
        EPOCHS.inc();
        EXAMPLES.add(examples.len() as u64);
        LOSS.set(ep.mean_loss as f64);
        GRAD_NORM.set(grad_norm);
        KAL_PENALTY.set(kal_penalty);
        OUTPUT_NONZERO_SHARE.set(ep.nonzero_share as f64);
        log_event!(
            "train.epoch",
            "epoch" = epoch,
            "loss" = ep.mean_loss,
            "grad_norm" = grad_norm,
            "phi_abs" = ep.mean_phi_abs,
            "psi" = ep.mean_psi,
            "nonzero_share" = ep.nonzero_share,
            "rolled_back" = poisoned,
            "ms" = elapsed.as_secs_f64() * 1e3,
        );
        if ep_steps > 0 && ep_nonzero == 0 {
            log_event!(
                "train.dead_output",
                "epoch" = epoch,
                "steps" = ep_steps,
                "loss" = ep.mean_loss,
            );
        }
        stats.push(ep);
    }
    stats
}

fn slot_mut(slot: &mut Mutex<Slot>) -> &mut Slot {
    slot.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// One example's forward and backward pass, written into `out`.
fn forward_backward(
    imputer: &TransformerImputer,
    w: &PortWindow,
    q: usize,
    cfg: &TrainConfig,
    lam_eq: f32,
    lam_ineq: f32,
    out: &mut Slot,
) {
    let mut tape = Tape::new(&imputer.store);
    let x = imputer.features(&mut tape, w, q..q + 1);
    let pred = imputer.model.forward_series(&mut tape, x, 0, 1);
    let target = tape.constant(Tensor::vector(
        w.truth[q]
            .iter()
            .map(|&v| v / imputer.scales.qlen)
            .collect(),
    ));
    let base = match cfg.loss {
        LossKind::Emd => loss::emd(&mut tape, pred, target),
        LossKind::Mse => loss::mse(&mut tape, pred, target),
    };
    let (root, phi, psi) = match &cfg.kal {
        Some(k) => {
            let terms = kal::build_terms(&mut tape, pred, w, q, imputer.scales.qlen, k);
            let phi = tape.scalar_value(terms.phi);
            let psi = tape.scalar_value(terms.psi);
            let full = kal::kal_loss(&mut tape, base, &terms, lam_eq, lam_ineq, k);
            (full, phi, psi)
        }
        None => (base, 0.0, 0.0),
    };
    out.loss = tape.scalar_value(root);
    let series = &tape.value(pred).data;
    out.steps = series.len();
    out.nonzero = series.iter().filter(|&&v| v > 0.0).count();
    (out.phi, out.psi) = (phi, psi);
    tape.backward_into(root, &mut out.grads);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmml_netsim::traffic::TrafficConfig;
    use fmml_netsim::{SimConfig, Simulation};
    use fmml_telemetry::windows_from_trace;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    /// Small windows (60 bins, 10-bin intervals) keep training fast.
    fn small_windows(seed: u64, ms: u64) -> Vec<PortWindow> {
        let cfg = SimConfig::small();
        let gt = Simulation::new(
            cfg.clone(),
            TrafficConfig::websearch_incast(cfg.num_ports, 0.6),
            seed,
        )
        .run_ms(ms);
        windows_from_trace(&gt, 60, 10, 60)
            .into_iter()
            .filter(|w| w.has_activity())
            .collect()
    }

    fn fast_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 4,
            lr: 5e-3,
            batch_size: 8,
            loss: LossKind::Emd,
            kal: None,
            seed: 2,
            parallel: true,
            nan_loss_epoch: None,
        }
    }

    fn scales() -> Scales {
        Scales {
            qlen: 260.0,
            count: 830.0,
        }
    }

    #[test]
    fn training_reduces_loss() {
        let ws = small_windows(5, 240);
        assert!(ws.len() >= 2, "need data, got {}", ws.len());
        let (_, stats) = train(&ws, scales(), &fast_cfg());
        let first = stats.first().unwrap().mean_loss;
        let last = stats.last().unwrap().mean_loss;
        assert!(
            last < first,
            "loss did not decrease: first={first} last={last}"
        );
    }

    #[test]
    fn kal_training_reduces_constraint_violation() {
        let ws = small_windows(6, 240);
        let mut cfg = fast_cfg();
        cfg.kal = Some(KalConfig::default());
        cfg.epochs = 6;
        let (model, stats) = train(&ws, scales(), &cfg);
        assert_eq!(crate::imputer::Imputer::name(&model), "Transformer+KAL");
        let first = stats.first().unwrap().mean_phi_abs;
        let last = stats.last().unwrap().mean_phi_abs;
        assert!(
            last < first,
            "KAL did not reduce |phi|: first={first} last={last}"
        );
    }

    /// Every parameter, every imputed value of `w` queue 0 (run `b`
    /// imputing under the kernel mode it trained in) and every epoch's
    /// mean loss agree bit for bit.
    fn assert_same_bits(
        (ma, stats_a): &(TransformerImputer, Vec<EpochStats>),
        (mb, stats_b): &(TransformerImputer, Vec<EpochStats>),
        mode_b: fmml_nn::KernelMode,
        w: &PortWindow,
    ) {
        let what = format!("{mode_b:?} run");
        assert_eq!(ma.store.len(), mb.store.len());
        for id in 0..ma.store.len() {
            let (pa, pb) = (&ma.store.value(id).data, &mb.store.value(id).data);
            assert_eq!(pa.len(), pb.len(), "{what}: shape diverged on param {id}");
            for (j, (x, y)) in pa.iter().zip(pb.iter()).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{what}: param {id}[{j}] diverged: {x} vs {y}"
                );
            }
        }
        let qa = ma.impute_queue(w, 0);
        let qb = fmml_nn::kernel::with_mode(mode_b, || mb.impute_queue(w, 0));
        for (t, (x, y)) in qa.iter().zip(&qb).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: imputed[{t}] diverged: {x} vs {y}"
            );
        }
        // Epoch statistics are reductions in the same fixed order too.
        for (sa, sb) in stats_a.iter().zip(stats_b) {
            assert_eq!(sa.mean_loss.to_bits(), sb.mean_loss.to_bits(), "{what}");
            assert_eq!(sa.rolled_back, sb.rolled_back, "{what}");
        }
    }

    #[test]
    fn parallel_and_serial_training_agree() {
        use fmml_nn::kernel::with_mode;
        use fmml_nn::KernelMode;
        // Determinism across rayon: `par_iter().collect()` concatenates
        // per-chunk results in input order (the vendored stub's ordered
        // chunk-per-thread contract), so the gradient reduction below it
        // visits `(ei, r)` pairs in exactly the serial order. Merging is
        // then the same sequence of f32 additions — the parallel run
        // must match the serial run *bit for bit*: every parameter and
        // every imputed value.
        let ws = small_windows(7, 120);
        let mut a = fast_cfg();
        a.epochs = 2;
        a.parallel = false;
        let mut b = a.clone();
        b.parallel = true;
        let serial = train(&ws, scales(), &a);
        let parallel = train(&ws, scales(), &b);
        assert_same_bits(&serial, &parallel, KernelMode::default(), &ws[0]);
        // And the kernel path itself is mode-invariant: a third run on
        // the scalar Reference kernels (pooling disabled) must land on
        // the same bits.
        let reference = with_mode(KernelMode::Reference, || train(&ws, scales(), &a));
        assert_same_bits(&serial, &reference, KernelMode::Reference, &ws[0]);
        // Tracing observes, it never steers: the parallel run with
        // tracing on (`train.epoch` spans, context handed into rayon by
        // hand) lands on the same bits. No other test in this crate
        // flips the switch.
        trace::set_enabled(true);
        let traced = train(&ws, scales(), &b);
        trace::set_enabled(false);
        let spans = trace::snapshot().spans;
        assert!(
            spans.iter().any(|s| s.name == "train.epoch"),
            "traced pass recorded no epoch span"
        );
        assert_same_bits(&serial, &traced, KernelMode::default(), &ws[0]);
    }

    #[test]
    fn imputation_is_kernel_mode_invariant() {
        // A trained model's inference output must not depend on which
        // kernel mode serves it.
        use fmml_nn::kernel::with_mode;
        use fmml_nn::KernelMode;
        let ws = small_windows(11, 120);
        let mut cfg = fast_cfg();
        cfg.epochs = 1;
        let (model, _) = train(&ws, scales(), &cfg);
        let w = &ws[0];
        let q_ref = with_mode(KernelMode::Reference, || model.impute_queue(w, 0));
        let q_def = model.impute_queue(w, 0);
        for (t, (r, d)) in q_ref.iter().zip(&q_def).enumerate() {
            assert_eq!(r.to_bits(), d.to_bits(), "imputed[{t}]: {r} vs {d}");
        }
    }

    #[test]
    fn nonzero_share_is_the_share_impute_counts() {
        // With a zero learning rate the parameters never move, so the
        // epoch's forward passes are the ones `impute` repeats afterwards.
        // `train` would start at the zero predictor; a random head has
        // outputs on both sides of 0.
        use crate::imputer::Imputer;
        let ws = small_windows(5, 240);
        let mut cfg = fast_cfg();
        cfg.epochs = 1;
        cfg.lr = 0.0;
        let mut model = TransformerImputer::new(cfg.seed, scales());
        let stats = train_from(&mut model, &ws, &cfg);
        let series: Vec<Vec<f32>> = ws.iter().flat_map(|w| model.impute(w)).collect();
        let steps: usize = series.iter().map(Vec::len).sum();
        let nonzero = series.iter().flatten().filter(|&&v| v > 0.0).count();
        assert!(0 < nonzero && nonzero < steps, "{nonzero} of {steps}");
        assert_eq!(stats[0].nonzero_share, nonzero as f32 / steps as f32);
    }

    #[test]
    fn overfits_one_window() {
        // A model that can learn fits the busiest window of the smoke
        // set-up far better than the all-zero series, whose EMD is the
        // mean of |cumsum(0 − truth)| = cumsum(truth).
        use crate::eval::{generate_windows, EvalConfig};
        let smoke = EvalConfig::smoke();
        let ws = generate_windows(&smoke, smoke.seed, smoke.train_runs);
        let volume = |w: &&PortWindow| w.truth.iter().flatten().sum::<f32>();
        let w = ws.iter().max_by(|a, b| volume(a).total_cmp(&volume(b)));
        let w = w.expect("an active window");
        let zero_emd = w.truth.iter().map(|q| {
            let cumsum = q.iter().scan(0.0, |c, &v| {
                *c += v / smoke.scales().qlen;
                Some(*c)
            });
            cumsum.sum::<f32>() / q.len() as f32
        });
        let zero_emd = zero_emd.sum::<f32>() / w.num_queues() as f32;
        // One batch per epoch: an epoch is one step.
        let steps = 200;
        let cfg = TrainConfig {
            epochs: steps,
            ..smoke.train.clone()
        };
        let (_, stats) = train(std::slice::from_ref(w), smoke.scales(), &cfg);
        let last = stats.last().unwrap().mean_loss;
        assert!(
            last < 0.1 * zero_emd,
            "EMD {last} after {steps} steps, all-zero series {zero_emd}"
        );
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_panics() {
        train(&[], scales(), &fast_cfg());
    }

    #[test]
    fn nan_loss_triggers_rollback_and_training_survives() {
        let ws = small_windows(8, 240);
        let mut cfg = fast_cfg();
        cfg.nan_loss_epoch = Some(1); // poison the second epoch
        let (model, stats) = train(&ws, scales(), &cfg);
        assert!(!stats[0].rolled_back, "clean epoch must not roll back");
        assert!(stats[1].rolled_back, "poisoned epoch must roll back");
        assert!(
            stats[2..].iter().all(|s| !s.rolled_back),
            "recovery epochs must be clean again"
        );
        // Parameters stay finite and the model still works.
        for id in 0..model.store.len() {
            assert!(
                model.store.value(id).data.iter().all(|v| v.is_finite()),
                "non-finite parameter after rollback"
            );
        }
        let pred = model.impute_queue(&ws[0], 0);
        assert!(pred.iter().all(|v| v.is_finite()));
        assert!(stats.last().unwrap().mean_loss.is_finite());
    }

    #[test]
    fn train_from_continues_an_existing_model() {
        let ws = small_windows(9, 240);
        let mut cfg = fast_cfg();
        cfg.epochs = 2;
        let (mut model, first) = train(&ws, scales(), &cfg);
        let more = train_from(&mut model, &ws, &cfg);
        assert_eq!(more.len(), 2);
        assert!(
            more.last().unwrap().mean_loss <= first[0].mean_loss,
            "resumed training regressed past the initial loss"
        );
    }

    /// Counts the heap allocations of the thread that makes them, so tests
    /// running beside each other do not disturb each other's counts. Every
    /// test of this crate's unit-test binary runs under it.
    struct CountingAlloc;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    fn count_alloc() {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }

    // SAFETY: every call is forwarded unchanged to the system allocator.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count_alloc();
            System.alloc(layout)
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            count_alloc();
            System.alloc_zeroed(layout)
        }
        unsafe fn realloc(&self, p: *mut u8, layout: Layout, size: usize) -> *mut u8 {
            count_alloc();
            System.realloc(p, layout, size)
        }
        unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
            System.dealloc(p, layout)
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;

    /// Heap allocations `f` makes on this thread.
    fn allocations(f: impl FnOnce()) -> u64 {
        let before = ALLOCS.get();
        f();
        ALLOCS.get() - before
    }

    #[test]
    fn a_warm_training_example_and_inference_forward_allocate_a_pinned_count() {
        // Serve-wire geometry: two intervals of 5 steps, T = 10.
        let cfg = SimConfig::small();
        let gt = Simulation::new(
            cfg.clone(),
            TrafficConfig::websearch_incast(cfg.num_ports, 0.6),
            19,
        )
        .run_ms(200);
        let w = windows_from_trace(&gt, 10, 5, 10)
            .into_iter()
            .find(|w| w.has_activity())
            .expect("an active window");
        let model = TransformerImputer::new(3, scales());
        let cfg = TrainConfig {
            kal: Some(KalConfig::default()),
            ..fast_cfg()
        };
        let mut slot = Slot::new(model.store.len());
        fmml_nn::TapeArena::clear();
        let mut example = || forward_backward(&model, &w, 0, &cfg, 0.25, 0.5, &mut slot);
        // The first pass fills this thread's tape arena, the gradient
        // buffers and the first-touch metric registrations.
        example();
        let train: Vec<u64> = (0..3).map(|_| allocations(&mut example)).collect();
        // The target series, and KAL's residual list, sample positions
        // and sample targets (the feature matrix is pooled tape storage).
        assert_eq!(train, [4; 3], "allocations per warm training example");
        model.impute_queue(&w, 0);
        let infer: Vec<u64> = (0..3)
            .map(|_| allocations(|| drop(model.impute_queue(&w, 0))))
            .collect();
        // The returned series.
        assert_eq!(infer, [1; 3], "allocations per warm inference forward");
    }
}
