//! Closed-form arc geometry for HaLk.
//!
//! HaLk (ICDE 2023) embeds every knowledge-graph entity as a *point* on a
//! circle of radius `ρ` and every sub-query as an *arc segment* on the same
//! circle, one `(center, arclength)` pair per embedding dimension. This crate
//! holds the scalar arc math the model runs: angle wrapping, chord lengths
//! (Eq. 9, 16), the squashing function `g(·)` (Eq. 3), and the [`Arc`] with
//! its start/end points (Definitions 1–2), containment and the inside/outside
//! distances of Eq. 15–16.
//!
//! Everything here works on one embedding dimension at a time. `halk-core`
//! uses it for the `ZeroedInside` training mask, the scalar scoring path and
//! the references its vectorized kernels are tested against; the property
//! tests in this crate pin down those same primitives.

pub mod angle;
pub mod arc;

pub use angle::{abs_delta, chord, g_squash, norm_angle, TAU};
pub use arc::Arc;
