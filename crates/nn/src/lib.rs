//! Minimal neural-network substrate for the HaLk reproduction.
//!
//! The paper trains its operators with PyTorch on GPUs; the Rust ecosystem
//! offers no comparable mature framework, so this crate implements the small
//! slice actually needed — dense `f32` tensors, a define-by-run reverse-mode
//! autodiff [`tape::Tape`], [`layers::Mlp`] stacks, Adam — from scratch, with
//! finite-difference [`gradcheck`] coverage for every op.
//!
//! Design points (see DESIGN.md §3):
//! * ops are a closed enum, so backward is a match loop with no dynamic
//!   dispatch or boxed closures;
//! * parameters live in a persistent [`params::ParamStore`]; tapes are
//!   cheap per-batch objects; embedding lookups ([`tape::Tape::gather`])
//!   scatter gradients sparsely;
//! * inference runs on [`tape::Tape::forward_only`] tapes, which record no
//!   ops and let dense layers read their weights in place
//!   ([`tape::Tape::affine`]), with values bit-identical to a recording
//!   tape;
//! * everything is deterministic under a seeded `rand::rngs::StdRng`.

pub mod checkpoint;
pub mod gradcheck;
pub mod init;
pub mod layers;
pub mod params;
pub mod tape;
pub mod tensor;

pub use layers::{Act, Linear, Mlp};
pub use params::{GradBuffer, GradSink, ParamId, ParamStore};
pub use tape::{Tape, Var};
pub use tensor::Tensor;
