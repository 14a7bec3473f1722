//! Closed-form geometric primitives for HaLk.
//!
//! HaLk (ICDE 2023) embeds every knowledge-graph entity as a *point* on a
//! circle of radius `ρ` and every sub-query as an *arc segment* on the same
//! circle, one `(center, arclength)` pair per embedding dimension. This crate
//! implements the angular arithmetic the paper relies on — start/end points
//! (Definitions 1–2), the quadrant regularizer `Reg(·)` (Eq. 6), chord-length
//! distances (Eq. 9, 16), the squashing function `g(·)` (Eq. 3), and the
//! closed-form complement used to seed the negation operator (Eq. 13) —
//! entirely free of any learning machinery so it can be tested exhaustively.
//!
//! All functions here are scalar (one embedding dimension at a time); the
//! model crates apply them element-wise over tensors, and the property tests
//! in this crate pin down the invariants the learned operators must respect.

pub mod angle;
pub mod arc;
pub mod polar;

pub use angle::{chord, norm_angle, signed_delta, TAU};
pub use arc::Arc;
pub use polar::{g_squash, reg_atan2, to_polar, to_rect};

/// Default circle radius `ρ` used throughout the paper (radius learning is
/// explicitly deferred to future work in §II-A, so `ρ` is a fixed constant).
pub const DEFAULT_RHO: f32 = 1.0;
