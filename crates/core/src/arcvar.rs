//! Arc embeddings on the autodiff tape.
//!
//! [`ArcVar`] is the differentiable counterpart of
//! [`halk_geometry::Arc`]: a batch of per-dimension `(center, arclength)`
//! pairs living as tape variables, plus the tape-level versions of the
//! paper's closed-form helpers — start/end points (Definitions 1–2), the
//! squash `g` (Eq. 3), and chord lengths. All trigonometry goes through
//! `sin`/`cos`, so raw angle parameters never need explicit wrapping: every
//! downstream quantity is automatically 2π-periodic.

use halk_nn::{Tape, Var};

/// A batch of arc embeddings on the tape: `center` and `len` are `B×d`.
#[derive(Debug, Clone, Copy)]
pub struct ArcVar {
    /// Center angles `A_c` (radians, unwrapped).
    pub center: Var,
    /// Arclengths `A_l` (non-negative by construction of the operators).
    pub len: Var,
}

impl ArcVar {
    /// Start point `A_S = A_c − A_l/(2ρ)` (Definition 1).
    pub fn start(self, tape: &mut Tape, rho: f32) -> Var {
        let half = tape.scale(self.len, 1.0 / (2.0 * rho));
        tape.sub(self.center, half)
    }

    /// End point `A_E = A_c + A_l/(2ρ)` (Definition 2).
    pub fn end(self, tape: &mut Tape, rho: f32) -> Var {
        let half = tape.scale(self.len, 1.0 / (2.0 * rho));
        tape.add(self.center, half)
    }

    /// Periodic `(start ‖ end)` features for the operator networks:
    /// `cos A_S ‖ sin A_S ‖ cos A_E ‖ sin A_E` (`B×4d`). Angles accumulate
    /// unboundedly over multi-hop rotations, and an MLP cannot generalize
    /// over `θ` vs `θ + 2π`; the unit-circle encoding is the faithful
    /// representation of a point on the paper's circle.
    pub fn start_end_features(self, tape: &mut Tape, rho: f32) -> Var {
        let s = self.start(tape, rho);
        let e = self.end(tape, rho);
        let cs = tape.cos(s);
        let ss = tape.sin(s);
        let ce = tape.cos(e);
        let se = tape.sin(e);
        tape.concat_cols(&[cs, ss, ce, se])
    }

    /// Arc angle `A_α = A_l / ρ`.
    pub fn span_angle(self, tape: &mut Tape, rho: f32) -> Var {
        tape.scale(self.len, 1.0 / rho)
    }
}

/// The squashing function `g(x) = π·tanh(λx) + π` (Eq. 3) on the tape,
/// mapping raw activations into `(0, 2π)`.
pub fn g_squash(tape: &mut Tape, x: Var, lambda: f32) -> Var {
    let scaled = tape.scale(x, lambda);
    let t = tape.tanh(scaled);
    let pi_t = tape.scale(t, std::f32::consts::PI);
    tape.add_scalar(pi_t, std::f32::consts::PI)
}

/// Clamps a tensor into `[lo, hi]` elementwise (sub-gradient routes to the
/// active side, like ReLU). Used to keep residually-updated arc angles in
/// the legal `[0, 2π]` range.
pub fn clamp(tape: &mut Tape, x: Var, lo: f32, hi: f32) -> Var {
    let (rows, cols) = {
        let t = tape.value(x);
        (t.rows, t.cols)
    };
    let lo_c = tape.constant(rows, cols, lo);
    let hi_c = tape.constant(rows, cols, hi);
    let m = tape.max(x, lo_c);
    tape.min(m, hi_c)
}

/// Chord length between two angle tensors: `2ρ·|sin((a−b)/2)|` — the
/// periodicity-safe distance of Eq. 9 / Eq. 16.
pub fn chord(tape: &mut Tape, a: Var, b: Var, rho: f32) -> Var {
    let d = tape.sub(a, b);
    let half = tape.scale(d, 0.5);
    let s = tape.sin(half);
    let abs = tape.abs(s);
    tape.scale(abs, 2.0 * rho)
}

#[cfg(test)]
mod tests {
    use super::*;
    use halk_nn::Tensor;

    #[test]
    fn start_end_match_geometry_definitions() {
        let mut t = Tape::new();
        let c = t.input(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let l = t.input(Tensor::from_vec(1, 2, vec![0.8, 0.4]));
        let arc = ArcVar { center: c, len: l };
        let s = arc.start(&mut t, 1.0);
        let e = arc.end(&mut t, 1.0);
        assert!((t.value(s).data[0] - 0.6).abs() < 1e-6);
        assert!((t.value(e).data[0] - 1.4).abs() < 1e-6);
        assert!((t.value(s).data[1] - 1.8).abs() < 1e-6);
        // Reference implementation agreement.
        let g = halk_geometry::Arc::new(1.0, 0.8, 1.0);
        assert!((t.value(s).data[0] - g.start()).abs() < 1e-5);
        assert!((t.value(e).data[0] - g.end()).abs() < 1e-5);
    }

    #[test]
    fn g_squash_matches_reference() {
        let mut t = Tape::new();
        let x = t.input(Tensor::from_vec(1, 3, vec![-2.0, 0.0, 2.0]));
        let g = g_squash(&mut t, x, 0.7);
        for (i, &xi) in [-2.0f32, 0.0, 2.0].iter().enumerate() {
            let expect = halk_geometry::g_squash(xi, 0.7);
            assert!((t.value(g).data[i] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn chord_matches_reference_and_is_periodic() {
        let mut t = Tape::new();
        let a = t.input(Tensor::from_vec(
            1,
            2,
            vec![0.2, 0.2 + std::f32::consts::TAU],
        ));
        let b = t.input(Tensor::from_vec(1, 2, vec![6.0, 6.0]));
        let c = chord(&mut t, a, b, 1.0);
        let expect = halk_geometry::chord(0.2, 6.0, 1.0);
        assert!((t.value(c).data[0] - expect).abs() < 1e-5);
        // Same physical angle shifted by 2π gives the same chord.
        assert!((t.value(c).data[0] - t.value(c).data[1]).abs() < 1e-4);
    }

    #[test]
    fn span_angle_scales_by_rho() {
        let mut t = Tape::new();
        let c = t.input(Tensor::zeros(1, 1));
        let l = t.input(Tensor::from_vec(1, 1, vec![3.0]));
        let arc = ArcVar { center: c, len: l };
        let alpha = arc.span_angle(&mut t, 2.0);
        assert!((t.value(alpha).item() - 1.5).abs() < 1e-6);
    }
}
