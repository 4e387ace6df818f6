//! # fmml-nn — a minimal deep-learning stack for telemetry imputation
//!
//! A from-scratch, CPU-only replacement for the deep-learning framework
//! the paper trains its transformer with. It provides exactly the pieces
//! the imputation model and the Knowledge-Augmented Loss (§3.1) need:
//!
//! * [`tensor::Tensor`] — dense f32 tensors (1-D and 2-D);
//! * [`tape::Tape`] — tape-based reverse-mode automatic differentiation
//!   over a fixed op vocabulary (affine maps, multi-head attention, layer
//!   norm, tanh, relu, cumulative sums for EMD, max/select reductions for
//!   constraint terms), reading parameters in place;
//! * `linear`, `norm`, `attention`, `transformer` — the model
//!   zoo: linear layers, layer normalization, multi-head self-attention,
//!   and a transformer encoder with sinusoidal positional encodings;
//! * `adam` — the Adam optimizer;
//! * [`loss`] — MSE and the differentiable 1-D Earth Mover's Distance the
//!   paper prefers for burst localization;
//! * `init` — seeded Xavier initializers (bit-reproducible).
//!
//! Gradient correctness is property-tested against central finite
//! differences (see `tape::tests` and `tests/` of the workspace).
//!
//! Batching is by data parallelism: each example builds its own [`Tape`]
//! against a shared read-only [`params::ParamStore`] (in parallel, in
//! `fmml-core`'s trainer); per-example [`params::Gradients`] are summed
//! in example order and applied by the optimizer. This mirrors how the
//! paper's GPU batches would behave at our (deliberately small) model
//! size: d_model 16, 2 layers, 300-step windows.

mod adam;
mod attention;
mod init;
pub mod kernel;
mod linear;
pub mod loss;
mod norm;
mod params;
pub mod tape;
mod tensor;
mod transformer;

pub use adam::Adam;
pub use kernel::KernelMode;
pub use params::{Gradients, ParamId, ParamStore};
pub use tape::{NodeId, Tape, TapeArena};
pub use tensor::Tensor;
pub use transformer::{TransformerConfig, TransformerEncoder};
