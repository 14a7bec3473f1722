//! Angular arithmetic on the circle `[0, 2π)`.
//!
//! HaLk measures every distance through *chord lengths* (`2ρ·sin(Δθ/2)`,
//! Eq. 9 and Eq. 16 of the paper) precisely because chords are immune to the
//! 2π-periodicity that breaks naive angle subtraction. The helpers here are
//! the single source of truth for wrapping, angular distances and chords,
//! plus the squashing function `g(·)` that keeps raw outputs on the circle.

/// The full turn, `2π`, as `f32`.
pub const TAU: f32 = std::f32::consts::TAU;

/// Normalizes an angle to the canonical range `[0, 2π)`.
///
/// Handles arbitrarily large magnitudes and negative inputs. `NaN` is
/// propagated unchanged so callers can surface upstream numerical bugs
/// instead of silently folding them onto the circle.
///
/// ```
/// use halk_geometry::angle::{norm_angle, TAU};
/// assert!((norm_angle(TAU + 1.0) - 1.0).abs() < 1e-6);
/// assert!((norm_angle(-0.5) - (TAU - 0.5)).abs() < 1e-6);
/// ```
#[inline]
pub fn norm_angle(theta: f32) -> f32 {
    let r = theta.rem_euclid(TAU);
    // rem_euclid can return TAU itself when theta is a tiny negative number
    // whose remainder rounds up; fold that back to 0.
    if r >= TAU {
        0.0
    } else {
        r
    }
}

/// Signed minimal difference `a - b`, wrapped into `(-π, π]`: the angular
/// displacement from `b` to `a` along the shorter way around the circle.
#[inline]
fn signed_delta(a: f32, b: f32) -> f32 {
    let mut d = norm_angle(a) - norm_angle(b);
    if d > std::f32::consts::PI {
        d -= TAU;
    } else if d <= -std::f32::consts::PI {
        d += TAU;
    }
    d
}

/// Absolute minimal angular distance between two angles, in `[0, π]`.
#[inline]
pub fn abs_delta(a: f32, b: f32) -> f32 {
    signed_delta(a, b).abs()
}

/// Chord length between two points on a circle of radius `rho`:
/// `2ρ·|sin((a−b)/2)|` (the measurement standard of Eq. 9 / Eq. 16).
///
/// Unlike the raw angle difference, the chord is a periodic-safe metric: it
/// is continuous across the 0/2π seam and symmetric in its arguments.
#[inline]
pub fn chord(a: f32, b: f32, rho: f32) -> f32 {
    2.0 * rho * ((a - b) * 0.5).sin().abs()
}

/// The squashing function `g(x) = π·tanh(λx) + π` of Eq. 3, mapping any real
/// activation into the open interval `(0, 2π)` so it is always a legal angle
/// or arc angle.
#[inline]
pub fn g_squash(x: f32, lambda: f32) -> f32 {
    std::f32::consts::PI * (lambda * x).tanh() + std::f32::consts::PI
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::PI;

    #[test]
    fn norm_angle_identity_in_range() {
        for &t in &[0.0, 0.5, PI, TAU - 1e-3] {
            assert!((norm_angle(t) - t).abs() < 1e-6, "t={t}");
        }
    }

    #[test]
    fn norm_angle_wraps_negative() {
        assert!((norm_angle(-PI) - PI).abs() < 1e-6);
        assert!((norm_angle(-3.0 * TAU - 1.0) - (TAU - 1.0)).abs() < 1e-4);
    }

    #[test]
    fn norm_angle_zero_at_tau() {
        assert_eq!(norm_angle(TAU), 0.0);
        assert_eq!(norm_angle(0.0), 0.0);
    }

    #[test]
    fn norm_angle_propagates_nan() {
        assert!(norm_angle(f32::NAN).is_nan());
    }

    #[test]
    fn signed_delta_is_antisymmetric() {
        let (a, b) = (0.3, 5.9);
        assert!((signed_delta(a, b) + signed_delta(b, a)).abs() < 1e-6);
    }

    #[test]
    fn signed_delta_crosses_seam() {
        // 0.1 and 2π-0.1 are 0.2 apart through the seam, not 2π-0.2.
        assert!((signed_delta(0.1, TAU - 0.1) - 0.2).abs() < 1e-6);
        assert!((signed_delta(TAU - 0.1, 0.1) + 0.2).abs() < 1e-6);
    }

    #[test]
    fn signed_delta_half_turn_is_positive_pi() {
        // The boundary case lands on +π by convention (range (-π, π]).
        assert!((signed_delta(PI, 0.0) - PI).abs() < 1e-6);
    }

    #[test]
    fn chord_is_periodic_safe() {
        // Same two physical points expressed with different winding.
        let c1 = chord(0.2, 6.0, 1.0);
        let c2 = chord(0.2 + TAU, 6.0 - TAU, 1.0);
        assert!((c1 - c2).abs() < 1e-5);
    }

    #[test]
    fn chord_max_at_antipode() {
        // Diametrically opposite points: chord = 2ρ.
        assert!((chord(0.0, PI, 3.0) - 6.0).abs() < 1e-5);
    }

    #[test]
    fn chord_zero_at_same_point() {
        assert!(chord(1.234, 1.234, 2.0).abs() < 1e-7);
    }

    #[test]
    fn g_squash_range_is_open_zero_two_pi() {
        // Open interval (0, 2π) in exact arithmetic; tanh saturates to ±1 in
        // f32 for huge inputs, so the closed bounds are the testable ones.
        for &x in &[-1e6f32, -3.0, -0.1, 0.0, 0.1, 3.0, 1e6] {
            let y = g_squash(x, 1.0);
            assert!((0.0..=TAU).contains(&y), "g({x}) = {y}");
        }
        assert!(g_squash(-3.0, 1.0) > 0.0 && g_squash(3.0, 1.0) < TAU);
        assert!((g_squash(0.0, 1.0) - PI).abs() < 1e-6);
    }

    #[test]
    fn g_squash_is_monotone() {
        let ys: Vec<f32> = (-10..=10).map(|i| g_squash(i as f32 * 0.5, 0.7)).collect();
        for w in ys.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn g_squash_lambda_controls_scale() {
        // Larger λ saturates faster.
        assert!(g_squash(1.0, 5.0) > g_squash(1.0, 0.5));
    }
}
